"""Cold-start time of each command: fresh processes on small fixed inputs.

Run from the root of a checkout, with its ``src/`` on ``PYTHONPATH``:

    PYTHONPATH=src python3 tools/cold_start.py

or on two trees with ``tools/bench_ab.py --inprocess tools/cold_start.py``.
Each command runs as ``python -m arfbrown.cli COMMAND --format structured
FILE`` (``tqft`` takes the theory ``ab=1`` before the file, ``selftest`` no
file) in a fresh process, ROUNDS times, the
commands taking turns within a round; one untimed run of each comes first,
so that every timed run finds the same bytecode cache.  A run's time is the
parent's wall clock from start to exit, and each run must exit 0 with
output.  The last stdout line is a JSON object
``{"cold_<command>_ms": {"value": median, "unit": "ms"}}``.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

ROUNDS = 15
STATEMENTS = "surface K: a a b b\nenhance K: a=1 b=3\ncircle c: 1 0 1\n"
# each command's positionals before the file
COMMANDS = {"surface": [], "arf-brown": [], "majorana": [], "tqft": ["ab=1"], "selftest": []}


def run_once(argv: list[str]) -> float:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "arfbrown.cli", *argv],
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if done.returncode != 0 or not done.stdout:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(argv)}: exited {done.returncode}")
    return elapsed


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="cold_start-") as tmp:
        path = os.path.join(tmp, "small.surf")
        with open(path, "w") as handle:
            handle.write(STATEMENTS)
        argvs = {name: [name, "--format", "structured", *words]
                 + ([] if name == "selftest" else [path])
                 for name, words in COMMANDS.items()}
        for argv in argvs.values():
            run_once(argv)
        times = {name: [] for name in argvs}
        for _ in range(ROUNDS):
            for name, argv in argvs.items():
                times[name].append(run_once(argv))
    result = {f"cold_{name.replace('-', '_')}_ms":
              {"value": statistics.median(values) * 1e3, "unit": "ms"}
              for name, values in times.items()}
    for name, metric in result.items():
        print(f"{name} = {metric['value']:.2f} ms")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
