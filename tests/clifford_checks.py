"""Shared checks on integer matrix representations of Clifford algebras."""

import numpy as np

from arfbrown.clifford import SuperMatrix


def int_matrix(m: SuperMatrix) -> np.ndarray:
    """The entries of m as an int64 array; each must be a rational integer."""
    size = m.dim_even + m.dim_odd
    out = np.zeros((size, size), dtype=np.int64)
    for i in range(size):
        for j in range(size):
            z = m.entry(i, j)
            assert z.im == 0 and z.re.denominator == 1
            out[i, j] = int(z.re)
    return out


def assert_clifford_relations(mats, signs):
    """Each generator squares to its sign times 1, and distinct ones anticommute."""
    dim = mats[0].shape[0]
    ident = np.eye(dim, dtype=np.int64)
    for i, (g, sign) in enumerate(zip(mats, signs)):
        assert np.array_equal(g @ g, sign * ident)
        for h in mats[i + 1 :]:
            assert np.array_equal(g @ h, -(h @ g))
