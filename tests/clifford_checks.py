"""Shared checks on integer matrix representations of Clifford algebras."""

import numpy as np

from arfbrown.clifford import SuperMatrix


def int_matrix(m: SuperMatrix) -> np.ndarray:
    """The entries of m as an int64 array; each must be a rational integer."""
    rows = m.rows()
    assert all(z.im == 0 and z.re.denominator == 1 for row in rows for z in row)
    return np.array([[int(z.re) for z in row] for row in rows], dtype=np.int64)


def assert_clifford_relations(mats, signs):
    """Each generator squares to its sign times 1, and distinct ones anticommute."""
    dim = mats[0].shape[0]
    ident = np.eye(dim, dtype=np.int64)
    for i, (g, sign) in enumerate(zip(mats, signs)):
        assert np.array_equal(g @ g, sign * ident)
        for h in mats[i + 1 :]:
            assert np.array_equal(g @ h, -(h @ g))
