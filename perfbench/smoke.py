"""Smoke test of the benchmark itself, on the smallest sizes.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that every workload runs clean with tracing off and on, that a
tampered answer is counted as a failed request, that the small-mix probe
reports the non-UTF-8 file's known defect (it escapes cli.main as a
UnicodeDecodeError instead of exiting 2), and that the benchmark refuses
to run, printing no result, in a directory that holds only BENCHMARK.json
and the benchmark.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def bench(*flags: str, cwd: str | None = None) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, RUN, "--seed", "3", "--seconds", "1", "--profile", "smoke", *flags],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc.returncode, proc.stdout


def result(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    errors = []
    outputs = {}
    for workload in ("chains", "gauss", "small-mix"):
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            code, out = outputs[workload, trace] = bench("--workload", workload, "--trace", trace)
            res = result(out) if code == 0 else {}
            if not (res.get("correct") and res["failed"] == 0 and res["attempted"] > 0):
                errors.append(f"{workload} trace {trace}: exit {code}, {res}")
            elif set(res["metrics"]) != {m["name"] for m in spec[kind]}:
                errors.append(f"{workload} trace {trace}: metrics {sorted(res['metrics'])}")

    code, out = bench("--workload", "gauss", "--tamper")
    res = result(out)
    if res["correct"] or res["failed"] < 1:
        errors.append(f"tampered answers were not counted: {res}")

    probe = re.search(r"^known defect probe .*: exit (.*?);", outputs["small-mix", "0"][1], re.M)
    if not probe or probe.group(1) != "exception UnicodeDecodeError":
        errors.append(f"known defect probe: {probe and probe.group(0)}")

    bare = os.path.join(HERE, ".out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    code, out = bench("--workload", "chains", cwd=bare)
    if code == 0 or out.strip():
        errors.append(f"without the package: exit {code}, stdout {out!r}")

    for line in errors:
        print(f"FAIL {line}")
    print("smoke test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
