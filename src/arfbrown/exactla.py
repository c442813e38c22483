"""Exact linear algebra over Q and over large prime fields.

Integer matrices only, and no runtime module calls any of it: these are
the tests' oracles, and they stay here, not in the tests, only because the
benchmark's tracer names them.  `rational_nullity` eliminates
fraction-free (Bareiss), in ints; the tests check `majorana`'s closed-form
commutant dimension against it.  `modular_nullity` scans chain spectra
over GF(p) (ranks over a prime field never exceed the rank over Q, so
modular nullities that sum to the dimension are exact), and
`solve_in_span` restricts operators to the ground space by
`fraction_rref`, Fraction elimination.  numpy is imported only inside
`modular_nullity`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MOD_PRIMES",
    "modular_nullity",
    "rational_nullity",
    "fraction_rref",
    "solve_in_span",
]

# Primes just under 2^31: products of two residues stay below 2^62, so
# int64 elimination never overflows.
MOD_PRIMES = (2147483647, 2147483629, 2147483587)


def modular_nullity(mat: np.ndarray, p: int) -> int:
    """Kernel dimension of an integer matrix over GF(p)."""
    import numpy as np

    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = a[r] * inv % p
        below = np.nonzero(a[r + 1 :, c])[0]
        if below.size:
            idx = below + r + 1
            a[idx] = (a[idx] - a[idx, c][:, None] * a[r][None, :]) % p
        r += 1
    return ncols - r


def fraction_rref(
    rows: Sequence[Sequence[Fraction | int]],
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    work = [[Fraction(v) for v in row] for row in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        lead = work[r][c]
        work[r] = [v / lead for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rational_nullity(mat: Sequence[Sequence[int]]) -> int:
    """Exact kernel dimension over Q of an integer matrix, given as rows.

    Fraction-free (Bareiss) elimination: after each pivot the rows below
    hold minors of the input, so dividing by the previous pivot is exact
    and every entry stays an int.
    """
    rows = [[int(v) for v in row] for row in mat]
    ncols = len(rows[0]) if rows else 0
    rank, prev = 0, 1
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        lead = top[c]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(lead * a - f * b) // prev for a, b in zip(rows[i], top)]
        prev = lead
        rank += 1
    return ncols - rank


def solve_in_span(
    basis: Sequence[Sequence[int]], target: Sequence[int]
) -> list[Fraction] | None:
    """Coefficients x with sum_j x_j basis_j = target, or None if outside."""
    k = len(basis)
    dim = len(target)
    augmented = [
        [Fraction(basis[j][i]) for j in range(k)] + [Fraction(target[i])]
        for i in range(dim)
    ]
    rref, pivots = fraction_rref(augmented)
    if k in pivots:
        return None
    x = [Fraction(0)] * k
    for r, c in enumerate(pivots):
        x[c] = rref[r][k]
    return x
