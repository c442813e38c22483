"""Benchmark of the arfbrown CLI and library on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload chains --seed 0 --seconds 30 --trace 0

Workloads are ``chains``, ``gauss`` and ``small-mix`` (see README.md in
this directory).  The command measures set-up time in fresh processes,
runs the workload in a fresh single-threaded worker process (which writes
the seeded inputs under ``perfbench/.out/`` and checks every answer) and
prints the metrics by name and unit.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json, with
``--trace 1`` the per-layer ones.  It exits non-zero, printing no result,
when the checkout holds no package source or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_SAMPLES = 9
RUN_LIMIT_S = 170
SETUP_SNIPPET = (
    "import time; t = time.perf_counter(); import arfbrown.cli as c; "
    "c.build_parser(); print(time.perf_counter() - t)"
)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def worker_env(src: str) -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join([src, HERE])
    return env


def machine() -> str:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(l.split(":", 1)[1].strip() for l in handle if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"{cpu}; nproc {nproc}; Python {platform.python_version()}"


def setup_seconds(env: dict[str, str]) -> float:
    """Median time, in fresh processes, to import arfbrown.cli and build the parser."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(out.stdout))
    return statistics.median(samples)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=tuple(workloads.PROFILES), default="full",
                        help="'smoke' runs the smallest sizes")
    parser.add_argument("--tamper", action="store_true",
                        help="corrupt one answer per pass (checks the checker)")
    args = parser.parse_args()
    began = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "arfbrown", "cli.py")):
        print(f"no package source at {src}/arfbrown; run from a checkout root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    env = worker_env(src)
    setup_s = setup_seconds(env) if not args.trace else None
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--profile", args.profile, "--seconds", str(args.seconds)]
    cmd += ["--trace"] * args.trace + ["--tamper"] * args.tamper
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=RUN_LIMIT_S - (time.monotonic() - began))
    except subprocess.TimeoutExpired:
        print("worker ran past the time limit", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    print(f"machine: {machine()}; numpy {res['numpy']}")
    print(f"workload {args.workload}, seed {args.seed}, profile {args.profile}:"
          f" {res['passes']} pass(es) of {res['requests_per_pass']} requests, closed loop, 1 client")
    print(f"op_tail_ms is the p{res['tail_percentile']:g} latency of each pass's"
          f" {res['requests_per_pass']} requests, median over {res['passes']} pass(es)")
    print(f"error_rate {res['failed'] / res['attempted']:.6f}"
          f" ({res['failed']} failed of {res['attempted']} attempted)")
    for line in res["problems"]:
        print(f"  failed: {line}")
    if res.get("probe"):
        print(f"known defect probe (non-UTF-8 file, documented exit 2): {res['probe']}")

    if args.trace:
        values = res["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = {k: res[k] for k in ("wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")}
        values["setup_s"] = setup_s
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
