"""Runs one workload's request list in this (fresh, single-threaded) process.

Usage, from the root of a checkout with the package's source under src/
and this directory on PYTHONPATH (run.py sets both):

    python3 worker.py --workload W --seed N --profile P --seconds S [--trace] [--tamper]

It writes the seeded inputs under .out/ in this directory and runs the
request list as a closed loop with one client.  Each request is timed on
its own; its answer is checked right after its timer stops, outside the
timed region.  At the default seed the CLI output digests must also match
golden.json.  Passes over the list repeat while the next one is expected
to end within S seconds (at least one pass runs); the latency metrics are
medians over passes of each pass's statistic.  With --trace, half the time
goes to untraced passes and one traced pass follows.  The last line of
stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from math import ceil

import workloads
from checks import check_cli, check_lib

HERE = os.path.dirname(os.path.abspath(__file__))

TAIL_PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten of n requests beyond it."""
    return max(p for p in TAIL_PERCENTILES if p == 50 or n * (100 - p) / 100 >= 10)


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, ceil(p / 100 * len(ordered)) - 1)]


def digest(code, stdout: str) -> str:
    return hashlib.sha256(f"{code}\n{stdout}".encode()).hexdigest()[:16]


class Runner:
    def __init__(self, requests: list[dict], golden: list | None = None, tamper: bool = False):
        import arfbrown.cli
        import arfbrown.clifford
        import arfbrown.majorana

        self.cli = arfbrown.cli
        self.clifford = arfbrown.clifford
        self.majorana = arfbrown.majorana
        self.requests = requests
        self.golden = golden
        self.tamper = tamper
        self.tracer = None
        self.problems: list[str] = []

    def _call(self, req: dict):
        """Run one request; returns (seconds, answer)."""
        if "argv" in req:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = self.cli.main(req["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # escaped: the request fails
                code = f"exception {type(exc).__name__}"
            return time.perf_counter() - start, (code, out.getvalue(), err.getvalue())
        a = req["args"]
        start = time.perf_counter()
        try:
            if req["op"] == "irreducible_supermodule":
                sig = self.clifford.Signature.cl(a["k"], a["k"])
                result = self.clifford.irreducible_supermodule(sig)
            else:
                make = getattr(self.majorana.ChainSetup, a["kind"])
                setup = make(a["bits"], a["orientation"])
                result = getattr(self.majorana, req["op"])(setup)
        except Exception as exc:
            result = exc
        return time.perf_counter() - start, result

    def _problems(self, req: dict, answer) -> list[str]:
        try:
            return self._check(req, answer)
        except Exception as exc:  # an answer of the wrong shape
            return [f"check raised {type(exc).__name__}: {exc}"]

    def _check(self, req: dict, answer) -> list[str]:
        if "argv" not in req:
            if isinstance(answer, Exception):
                return [f"raised {type(answer).__name__}: {answer}"]
            return check_lib(req, answer)
        code, stdout, stderr = answer
        problems = check_cli(req, code, stdout, stderr)
        if not problems and self.golden is not None:
            want = self.golden[req["id"]]
            if digest(code, stdout) != want:
                problems = [f"output digest differs from the recorded {want}"]
        return problems

    def run_pass(self) -> tuple[list[float], int]:
        """One pass over the list: (each request's latency in ms, failed)."""
        latencies = []
        failed = 0
        tampered = not self.tamper
        for req in self.requests:
            if self.tracer is not None:
                self.tracer.start_request(req["id"])
            seconds, answer = self._call(req)
            latencies.append(seconds * 1e3)
            if not tampered and "argv" in req and not req["expect"].get("exit"):
                answer = (answer[0], answer[1] + '{"record":"tampered"}\n', answer[2])
                tampered = True
            problems = self._problems(req, answer)
            if problems:
                failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"request {req['id']} ({req['op']}): {problems[0]}")
        return latencies, failed

    def warm_up(self) -> None:
        """Run the cheapest request of each operation once, untimed."""
        cheapest: dict[str, tuple[int, dict]] = {}
        for req in self.requests:
            if "argv" in req:
                path = req["argv"][-1]
                size = os.path.getsize(path) if os.path.isfile(path) else 0
            else:
                size = len(json.dumps(req["args"]))
            if req["op"] not in cheapest or size < cheapest[req["op"]][0]:
                cheapest[req["op"]] = (size, req)
        for _, req in cheapest.values():
            self._call(req)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", choices=tuple(workloads.PROFILES), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()

    root = os.getcwd()
    outdir = os.path.join(HERE, ".out", f"{args.workload}-s{args.seed}-{args.profile}")
    shutil.rmtree(outdir, ignore_errors=True)
    requests = workloads.build(args.workload, args.seed,
                               os.path.relpath(os.path.join(outdir, "inputs"), root), args.profile)
    golden = None
    if args.seed == workloads.DEFAULT_SEED and args.profile == "full":
        with open(os.path.join(HERE, "golden.json")) as handle:
            golden = json.load(handle)[args.workload]
    probe = None
    if args.workload == "small-mix":
        probe = os.path.relpath(os.path.join(outdir, "non-utf8.txt"), root)
        with open(probe, "wb") as handle:
            handle.write(workloads.NON_UTF8)

    import numpy

    runner = Runner(requests, golden, args.tamper)
    import arfbrown

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(arfbrown.__file__).startswith(src + os.sep):
        print(f"imported {arfbrown.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    runner.warm_up()

    n = len(requests)
    p_tail = tail_percentile(n)
    budget = args.seconds / 2 if args.trace else args.seconds
    walls: list[float] = []
    p50s: list[float] = []
    tails: list[float] = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        latencies, bad = runner.run_pass()
        walls.append(sum(latencies) / 1e3)
        p50s.append(nearest_rank(latencies, 50))
        tails.append(nearest_rank(latencies, p_tail))
        attempted += n
        failed += bad
        elapsed = time.perf_counter() - begin
        if elapsed + statistics.median(walls) > budget:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "passes": len(walls),
        "requests_per_pass": n,
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(p50s),
        "op_tail_ms": statistics.median(tails),
        "tail_percentile": p_tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }

    if args.trace:
        from tracer import Tracer

        runner.tracer = Tracer()
        runner.tracer.install()
        try:
            latencies, bad = runner.run_pass()
        finally:
            runner.tracer.uninstall()
        attempted += n
        failed += bad
        layers = runner.tracer.metrics()
        layers["trace.overhead_s"] = sum(latencies) / 1e3 - result["wall_s"]
        runner.tracer.write(os.path.join(outdir, "spans.jsonl"))
        result.update(attempted=attempted, failed=failed, per_layer=layers)

    if probe:
        _, (code, _, stderr) = runner._call({"argv": ["surface", "--format", "structured", probe]})
        result["probe"] = f"exit {code}; stderr {stderr.strip()[:120]!r}"
    result["problems"] = runner.problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
