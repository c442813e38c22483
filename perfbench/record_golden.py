"""Record the expected output digests of the default seed.

Run from the root of a checkout whose output is the reference:

    python3 perfbench/record_golden.py

For every workload at the default seed it runs each CLI request once,
refuses to record if any answer fails its checks, and writes the digest of
(exit code, structured stdout) per request to perfbench/golden.json.
run.py then fails any default-seed request whose digest differs.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import workloads  # noqa: E402
from worker import Runner, digest  # noqa: E402


def main() -> int:
    golden = {}
    for name in workloads.WORKLOADS:
        inputs = os.path.relpath(os.path.join(HERE, ".out", f"golden-{name}"), os.getcwd())
        requests = workloads.build(name, workloads.DEFAULT_SEED, inputs)
        runner = Runner(requests)
        digests = [None] * len(requests)
        for req in requests:
            _, answer = runner._call(req)
            problems = runner._problems(req, answer)
            if problems:
                print(f"{name} request {req['id']}: {problems[0]}", file=sys.stderr)
                return 1
            if "argv" in req:
                digests[req["id"]] = digest(answer[0], answer[1])
        golden[name] = digests
        print(f"{name}: {sum(d is not None for d in digests)} CLI digests")
    with open(os.path.join(HERE, "golden.json"), "w") as handle:
        json.dump(golden, handle, indent=0)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
