"""Exact linear algebra over Q and over large prime fields.

Integer matrices only.  Ranks over a prime field never exceed the rank
over Q, so a family of modular nullities that already sums to the space's
dimension is certified exact; the tests use that certificate to check the
closed-form chain spectra.  Rational computations use Fraction throughout.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

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


def rational_nullity(mat: np.ndarray) -> int:
    """Exact kernel dimension over Q of an integer matrix."""
    rows = [[int(v) for v in row] for row in np.asarray(mat)]
    ncols = len(rows[0]) if rows else 0
    _, pivots = fraction_rref(rows)
    return ncols - len(pivots)


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
