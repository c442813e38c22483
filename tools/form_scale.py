"""`quadform.arf_brown` and `quadform.arf` on large forms: seconds per call.

Run with the tree to measure on the path:

    PYTHONPATH=src python3 tools/form_scale.py

or through the A/B harness, which runs it once per side on each tree:

    python3 tools/bench_ab.py --base HEAD~1 --head . --inprocess tools/form_scale.py \\
        --pairs 10 --out BENCH_<n>_scale.json

Each form carries a seeded random enhancement:
- ``canonical_orientable``: the form of the canonical word of genus d/2,
  d/2 hyperbolic pairs, at each d of CANONICAL_SIZES;
- ``canonical_nonorientable``: that of d crosscaps, the identity;
- ``dense_orientable`` and ``dense_nonorientable``, at each d of
  DENSE_SIZES: the same canonical form rewritten in a seeded random basis
  P = LU (L and U random unitriangular, so P is invertible).  The Gram
  matrix becomes P M P^T, and q on the new basis vectors is carried over
  by the quadratic law (``quadform.evaluate``).

A change of basis keeps the exponent, so every answer is known in closed
form: 4 for each hyperbolic pair on which q is 2 twice, and +1 or -1 for
each crosscap on which q is 1 or 3.  Every ``arf_brown`` call is checked
against it, and every ``arf`` call (orientable forms only, where q is
even) against a quarter of it.  A figure is the fastest of the calls made
within BUDGET_S seconds, at least one.  The last stdout line is the JSON
object ``{name: {"value": v, "unit": u}}`` that ``bench_ab.py --inprocess``
reads.
"""

from __future__ import annotations

import json
import random
import sys
import time

from arfbrown.quadform import Enhancement, arf, arf_brown, evaluate
from arfbrown.surface import IntersectionForm

CANONICAL_SIZES = (1000, 2000, 4000)
DENSE_SIZES = (1000, 2000)
SEED = 32
BUDGET_S = 0.1


def _enhancement(rows: list[int], values: list[int]) -> Enhancement:
    labels = tuple(f"x{i}" for i in range(len(rows)))
    return Enhancement(IntersectionForm(labels, tuple(rows)), dict(zip(labels, values)))


def canonical(orientable: bool, d: int, rng: random.Random) -> tuple[Enhancement, int]:
    """A canonical form of dimension d with random q, and its exponent."""
    if orientable:
        rows = [1 << (i ^ 1) for i in range(d)]
        values = [2 * rng.randint(0, 1) for _ in range(d)]
        k = 4 * sum(a == b == 2 for a, b in zip(values[::2], values[1::2]))
    else:
        rows = [1 << i for i in range(d)]
        values = [rng.choice((1, 3)) for _ in range(d)]
        k = sum(2 - v for v in values)
    return _enhancement(rows, values), k % 8


def rewritten(q: Enhancement, rng: random.Random) -> Enhancement:
    """q in the basis of the rows of a random invertible P = LU."""
    d, rows = q.dim, q.form.rows
    lower = [1 << i | rng.getrandbits(i) for i in range(d)]
    upper = [1 << i | rng.getrandbits(d - 1 - i) << i + 1 for i in range(d)]
    basis = [_combine(upper, mask) for mask in lower]
    images = [_combine(rows, p) for p in basis]  # M p, since M is symmetric
    new_rows = [
        sum(((p & image).bit_count() & 1) << j for j, p in enumerate(basis))
        for image in images
    ]
    return _enhancement(new_rows, [evaluate(q, p) for p in basis])


def _combine(rows: list[int], mask: int) -> int:
    """The XOR of the rows that the bits of mask pick."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= rows[low.bit_length() - 1]
        mask ^= low
    return out


def fastest(function, q: Enhancement, want: int) -> float:
    """The fastest of the calls of function(q) made within BUDGET_S seconds,
    each checked against want."""
    best, spent = float("inf"), 0.0
    while spent < BUDGET_S:
        start = time.perf_counter()
        got = function(q)
        seconds = time.perf_counter() - start
        if got != want:
            raise SystemExit(f"{function.__name__}: {got}, want {want} (d = {q.dim})")
        best, spent = min(best, seconds), spent + seconds
    return best


def measure(canonical_sizes=CANONICAL_SIZES, dense_sizes=DENSE_SIZES) -> dict:
    """Every figure, by name, in the JSON shape that bench_ab.py reads."""
    rng = random.Random(SEED)
    metrics = {}
    for kind, sizes in (("canonical", canonical_sizes), ("dense", dense_sizes)):
        for orientable in (True, False):
            name = f"{kind}_{'' if orientable else 'non'}orientable"
            for d in sizes:
                q, k = canonical(orientable, d, rng)
                if kind == "dense":
                    q = rewritten(q, rng)
                seconds = {"arf_brown": fastest(arf_brown, q, k)}
                if orientable:
                    seconds["arf"] = fastest(arf, q, k // 4)
                for function, value in seconds.items():
                    metrics[f"{function}_{name}_{d}_s"] = {"value": value, "unit": "s"}
                    print(f"{function} {name} d = {d}: {value:.4f} s", file=sys.stderr)
    return metrics


def main() -> int:
    print(json.dumps(measure()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
