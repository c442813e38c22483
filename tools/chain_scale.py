"""`majorana.ground_states` on one large circle per size: seconds and peak RSS.

Run with the tree to measure on the path:

    PYTHONPATH=src python3 tools/chain_scale.py

or through the A/B harness, which runs it once per side on each tree:

    python3 tools/bench_ab.py --base HEAD~1 --head . --inprocess tools/chain_scale.py \\
        --pairs 5 --out BENCH_<n>_scale.json

For n = 10^4 and then 10^5 vertices it times one `ground_states` call on a
circle with seeded random bits and checks its ground dimension and parity
(1, and "even" exactly when the bits have odd sum).  Peak RSS is the
process's high-water mark after the call (`ru_maxrss`); the sizes run in
increasing order, so each one's figure is the peak of its own call or of
the process start.  The last stdout line is the JSON object
``{name: {"value": v, "unit": u}}`` that ``bench_ab.py --inprocess`` reads.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time

from arfbrown.majorana import ground_states
from arfbrown.pin1 import ChainSetup

SIZES = (10**4, 10**5)
SEED = 29


def main() -> int:
    rng = random.Random(SEED)
    metrics = {}
    for n in SIZES:
        bits = [rng.randint(0, 1) for _ in range(n)]
        setup = ChainSetup.circle(bits)
        start = time.perf_counter()
        report = ground_states(setup)
        seconds = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        want = (1, "even" if sum(bits) % 2 else "odd")
        if (report.ground_dimension, report.ground_parity) != want:
            print(f"n = {n}: ground {report.ground_dimension}, {report.ground_parity};"
                  f" want {want}", file=sys.stderr)
            return 1
        print(f"n = {n}: ground_states {seconds:.3f} s, peak RSS {peak_mb:.1f} MB",
              file=sys.stderr)
        size = f"1e{len(str(n)) - 1}"
        metrics[f"ground_states_{size}_s"] = {"value": seconds, "unit": "s"}
        metrics[f"peak_rss_{size}_mb"] = {"value": peak_mb, "unit": "MB"}
    print(json.dumps(metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
