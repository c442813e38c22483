"""The dense chain engine: ground vectors of length 2^n and their checks.

This was the runtime path before the chain results came from edge words.
It keeps the 2^n-entry ground vectors, the image of e_0 and e_1 under
prod (1 - T_e) on the signed permutations of `arfbrown._dense`, certifies
them exactly, and restricts operators to them entry by entry, and it
writes the spectrum out in full with `math.comb`.  The tests compare
`ground_states` and `interval_bimodule_check` with it.
"""

from fractions import Fraction
from math import comb

import numpy as np

from arfbrown._dense import SignedPerm, majoranas
from arfbrown.exactla import rational_nullity
from arfbrown.majorana import GroundStateReport, IntervalReport


def identity(dim: int) -> SignedPerm:
    """The identity on a dim-vector basis."""
    return SignedPerm(np.arange(dim, dtype=np.int64), np.ones(dim, dtype=np.int64))


def negate(op: SignedPerm) -> SignedPerm:
    """-op: same targets, opposite signs."""
    return SignedPerm(op.target, -op.sign)


def apply(op: SignedPerm, vec: np.ndarray) -> np.ndarray:
    """The image of an integer vector."""
    out = np.empty_like(vec)
    out[op.target] = op.sign * vec
    return out


def same(a: SignedPerm, b: SignedPerm) -> bool:
    return np.array_equal(a.target, b.target) and np.array_equal(a.sign, b.sign)


def _trace(op: SignedPerm) -> int:
    return int(op.sign[op.target == np.arange(len(op.target))].sum())


def edge_terms(setup, c, d):
    """T_e = (-1)^{t(e)} c_head d_tail for every edge, in edge order, built
    from the generators and not from the package's edge words."""
    terms = [(c[head].after(d[tail]), bit) for tail, head, bit in setup.edges]
    return [negate(term) if bit else term for term, bit in terms]


_PARITY = {(0,): "even", (1,): "odd", (0, 1): "mixed"}


def ground_data(setup):
    """The spectral report plus exact integer ground vectors, keyed by parity.

    Every T_e preserves parity, and the flips connect all subsets of one
    parity, so prod (1 - T_e) maps e_0 and e_1 onto vectors spanning the
    even and the odd part of the ground space; a part may be zero, and then
    its key is absent.
    """
    n = setup.vertex_count
    dim = 1 << n
    terms = edge_terms(setup, *majoranas(n))
    edge_count = len(terms)
    ident = identity(dim)
    for i, term in enumerate(terms):
        assert same(term.after(term), ident), "an edge term does not square to 1"
        for u in terms[i + 1 :]:
            assert same(term.after(u), u.after(term)), "edge terms do not commute"
    if setup.is_circle:
        product = ident
        for term in terms:
            product = term.after(product)
        assert _trace(product) == 0, "the product of all edge terms has a trace"

    vectors = {}
    for probe in (0, 1):
        vec = np.zeros(dim, dtype=np.int64)
        vec[probe] = 1
        for term in terms:
            vec = vec - apply(term, vec)
        if not vec.any():
            continue
        for term in terms:
            assert np.array_equal(apply(term, vec), -vec)
        support = {m.bit_count() & 1 for m in np.flatnonzero(vec).tolist()}
        assert support == {probe}, "ground vector is not grading-homogeneous"
        vectors[probe] = vec
    assert len(vectors) == 1 << (n - edge_count)

    report = GroundStateReport(
        vertex_count=n,
        edge_count=edge_count,
        ground_parity=_PARITY[tuple(vectors)],
    )
    return report, vectors


def spectrum(setup):
    """The spectrum of H as (eigenvalue, multiplicity) pairs, from the lowest:
    the commuting edge terms square to 1 and every nonempty product of them
    is traceless, so 2H = -E + 2j with multiplicity C(E, j) 2^(n-E)."""
    n, edge_count = setup.vertex_count, len(setup.edges)
    return tuple(
        (Fraction(2 * j - edge_count, 2), comb(edge_count, j) << (n - edge_count))
        for j in range(edge_count + 1)
    )


def boundary_operators(setup):
    """c at the vertex that heads no edge and d at the one that tails none."""
    n = setup.vertex_count
    (c_vertex,) = set(range(n)) - {head for _, head, _ in setup.edges}
    (d_vertex,) = set(range(n)) - {tail for tail, _, _ in setup.edges}
    c, d = majoranas(n)
    return c[c_vertex], d[d_vertex]


def restrict(op: SignedPerm, vectors) -> np.ndarray:
    """The 2x2 matrix of an odd operator on the ground space, in the basis
    (even, odd) of `vectors`: each image is a multiple of the vector of the
    other parity, read at one entry and checked over the whole vector."""
    out = np.zeros((2, 2), dtype=np.int64)
    for parity, vec in vectors.items():
        image, target = apply(op, vec), vectors[1 - parity]
        i = int(np.flatnonzero(target)[0])
        k, rem = divmod(int(image[i]), int(target[i]))
        if rem or not np.array_equal(image, k * target):
            raise ArithmeticError("operator does not preserve the ground space")
        out[1 - parity, parity] = k
    return out


def bimodule_report(setup):
    """(IntervalReport, c restricted, d restricted) on the dense vectors."""
    report, vectors = ground_data(setup)
    c_op, d_op = boundary_operators(setup)
    terms = edge_terms(setup, *majoranas(setup.vertex_count))
    commutes = all(
        same(op.after(term), term.after(op)) for op in (c_op, d_op) for term in terms
    )
    c_r, d_r = restrict(c_op, vectors), restrict(d_op, vectors)
    ident = np.eye(2, dtype=np.int64)
    plus_sq = np.array_equal(c_r @ c_r, ident)
    minus_sq = np.array_equal(d_r @ d_r, -ident)
    anti = np.array_equal(c_r @ d_r, -(d_r @ c_r))
    commutant_dim = rational_nullity(
        np.vstack([np.kron(g, ident) - np.kron(ident, g.T) for g in (c_r, d_r)])
    )
    irreducible = len(vectors) == 2 and commutant_dim == 1
    passed = bool(
        report.ground_dimension == 2
        and commutes
        and plus_sq
        and minus_sq
        and anti
        and irreducible
    )
    interval = IntervalReport(
        ground_dimension=report.ground_dimension,
        parity_split=(int(0 in vectors), int(1 in vectors)),
        boundary_commutes=commutes,
        plus_squares_to_identity=plus_sq,
        minus_squares_to_minus_identity=minus_sq,
        generators_anticommute=anti,
        commutant_dimension=commutant_dim,
        irreducible=irreducible,
        passed=passed,
    )
    return interval, c_r, d_r
