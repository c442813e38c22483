"""A/B comparison of two trees on the benchmark, written to a BENCH file.

Run from the root of a checkout:

    python3 tools/bench_ab.py --base HEAD~1 --head . --out BENCH_<n>.json

``--base`` and ``--head`` each name a git revision of this checkout, which
is extracted with ``git archive`` into a temporary directory, or a
directory that holds a source tree.  For each workload the head's
``perfbench/run.py`` runs ``--pairs`` times on each tree, with the tree as
the working directory and alternating which side goes first; the JSON line
that ``run.py`` prints last gives the run's end-to-end metrics.

The output records the machine, both trees (a revision's commit, and for
either side the git hash of its ``src/``, which ``git rev-parse REV:src``
matches for a commit of the same files), every run, and per workload
and metric each side's median and quartiles, the change/parent ratio of
the medians, the head's win count and a verdict:

- ``gain``: the head wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
- ``cost``: the ratio is past the metric's bound in ``BENCHMARK.json`` and
  the medians differ the other way by more than that range;
- ``unresolved``: anything else.

With ``--inprocess SCRIPT`` the pairs run SCRIPT instead of the
workloads: a fresh ``python3 SCRIPT`` per side, with the tree as the working
directory and its ``src/`` on ``PYTHONPATH``.  SCRIPT's last stdout line is
a JSON object ``{name: {"value": v, "unit": u}}``; every such metric is
better lower, and takes the bound of the ``BENCHMARK.json`` end-to-end
metric with its unit.  The file keys its rows by SCRIPT as given.

With ``--trace`` each run is ``run.py --trace 1``, and the rows are the
``per_layer`` metrics of ``BENCHMARK.json``, each scored with the direction
given there.  A per-layer metric has no bound of its own: it takes the bound
of the end-to-end metric with its unit, and where there is none (counts,
ratios, bytes) it gets no ``cost`` verdict.

A run that fails, or reports incorrect output, stops the comparison with
exit status 1 and writes no file.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

RUN_TIMEOUT_S = 600


def git(*args: str, env: dict | None = None) -> bytes:
    return subprocess.run(["git", *args], env=env, capture_output=True, check=True).stdout


def src_tree(tree: str, git_dir: str) -> str:
    """The git hash of a tree's src/ directory, as `git rev-parse REV:src`
    prints it for a commit of the same files.  It is worked out in a new
    bare repository at `git_dir`, so the tree need not be a git work tree
    and no repository's object store takes its blobs."""
    git("init", "--bare", "--quiet", git_dir)
    env = {**os.environ, "GIT_DIR": git_dir, "GIT_INDEX_FILE": os.path.join(git_dir, "index")}
    git("--work-tree", tree, "add", "-A", "--", "src", env=env)
    return git("write-tree", "--prefix=src/", env=env).decode().strip()


def materialise(spec: str, scratch: str, name: str) -> tuple[str, dict]:
    """The source tree that `spec` names and how the file records it."""
    info = {"spec": spec}
    if os.path.isdir(spec):
        tree = os.path.abspath(spec)
    else:
        info["commit"] = git("rev-parse", "--verify", f"{spec}^{{commit}}").decode().strip()
        tree = os.path.join(scratch, name)
        with tarfile.open(fileobj=io.BytesIO(git("archive", info["commit"]))) as archive:
            kwargs = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            archive.extractall(tree, **kwargs)
    info["src_tree"] = src_tree(tree, os.path.join(scratch, f"{name}.git"))
    return tree, info


def bench_run(run_py: str, tree: str, workload: str, args) -> tuple[dict, str]:
    """The result object of one run.py run on a tree, and its machine line."""
    cmd = [sys.executable, run_py, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--profile", args.profile,
           "--trace", str(int(args.trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} on {tree}: run.py exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} on {tree}: {result['failed']} of"
                         f" {result['attempted']} requests failed")
    machine = next((l for l in lines if l.startswith("machine: ")), "")
    return result, machine[len("machine: "):]


def script_run(script: str, tree: str) -> dict:
    """SCRIPT's metrics from one fresh process on a tree's src/."""
    env = {**os.environ, "PYTHONPATH": os.path.join(tree, "src")}
    proc = subprocess.run([sys.executable, script], cwd=tree, env=env,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{script} on {tree}: exited {proc.returncode}")
    return json.loads(lines[-1])


def machine() -> str:
    """The CPU model, which begins the machine line of perfbench's run.py."""
    try:
        with open("/proc/cpuinfo") as handle:
            return next(l.split(":", 1)[1].strip() for l in handle
                        if l.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or platform.machine()


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """Both sides of one metric and the verdict on them."""
    sign = 1 if metric["better"] == "lower" else -1
    base, head = quartiles(parent), quartiles(change)
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    gap = sign * (base["median"] - head["median"])  # > 0: the change is better
    spread = base["q3"] - base["q1"]
    ratio = head["median"] / base["median"] if base["median"] else None
    if 10 * wins >= 9 * len(parent) and gap > spread:
        verdict = "gain"
    elif (ratio is not None and metric["bound"] is not None
          and sign * (ratio - 1) > metric["bound"] and -gap > spread):
        verdict = "cost"
    else:
        verdict = "unresolved"
    return {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            "parent": base, "change": head, "ratio": ratio, "wins": wins,
            "pairs": len(parent), "verdict": verdict}


def main() -> int:
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision or directory")
    parser.add_argument("--head", required=True, help="git revision or directory")
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--inprocess", metavar="SCRIPT",
                        help="run SCRIPT on each tree instead of the workloads")
    parser.add_argument("--trace", action="store_true",
                        help="traced runs (run.py --trace 1), scored per layer")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--profile", default="full")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    args = parser.parse_args()
    if args.trace and args.inprocess:
        parser.error("--trace runs the workloads, --inprocess a script")

    if args.inprocess:
        script = os.path.abspath(args.inprocess)
        workloads = [args.inprocess]
    else:
        workloads = args.workloads
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as scratch:
        base, base_info = materialise(args.base, scratch, "base")
        head, head_info = materialise(args.head, scratch, "head")
        run_py = os.path.join(head, "perfbench", "run.py")
        runs, values, units, machine_line = [], {}, {}, machine()
        for workload in workloads:
            for pair in range(args.pairs):
                sides = [("parent", base), ("change", head)]
                for side, tree in sides if pair % 2 == 0 else sides[::-1]:
                    if args.inprocess:
                        metrics, run = script_run(script, tree), {}
                    else:
                        result, machine_line = bench_run(run_py, tree, workload, args)
                        metrics = result["metrics"]
                        run = {k: result[k] for k in ("correct", "attempted", "failed")}
                    print(f"{workload} pair {pair} {side}:", json.dumps(metrics),
                          file=sys.stderr)
                    runs.append({"workload": workload, "pair": pair, "side": side, **run,
                                 "metrics": {k: m["value"] for k, m in metrics.items()}})
                    for name, m in metrics.items():
                        values.setdefault((workload, name, side), []).append(m["value"])
                        units[name] = m["unit"]

    bounds = {m["unit"]: m["bound"] for m in spec["end_to_end"]}
    if args.inprocess:
        missing = sorted(set(units.values()) - set(bounds))
        if missing:
            raise SystemExit(f"{args.inprocess}: no bound for the units {missing}")
        rows = [{"name": name, "unit": unit, "better": "lower", "bound": bounds[unit]}
                for name, unit in units.items()]
    elif args.trace:
        rows = [{**m, "bound": bounds.get(m["unit"])} for m in spec["per_layer"]]
    else:
        rows = spec["end_to_end"]
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    report = {
        "machine": machine_line,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy,
        "base": base_info,
        "head": head_info,
        **({"inprocess": args.inprocess} if args.inprocess else
           {"seed": args.seed, "profile": args.profile, "seconds": args.seconds,
            "trace": args.trace}),
        "pairs": args.pairs,
        "runs": runs,
        "workloads": {
            workload: {
                m["name"]: compare(m, values[workload, m["name"], "parent"],
                                   values[workload, m["name"], "change"])
                for m in rows
            }
            for workload in workloads
        },
    }
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for workload, metrics in report["workloads"].items():
        for name, row in metrics.items():
            ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
            print(f"{workload:10} {name:12} {row['parent']['median']:.6g} ->"
                  f" {row['change']['median']:.6g} (ratio {ratio},"
                  f" {row['wins']}/{row['pairs']} wins): {row['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
