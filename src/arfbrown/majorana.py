"""The time-reversal-invariant Majorana chain, exactly.

The state space on n vertices is spanned by the subsets of the vertex
set (dimension 2^n, graded by subset size mod 2).  The Majorana
operators c_v and d_v are the +1 and -1 odd generators of the v-th
C^{1|1} factor, signed permutations of the subsets
(`clifford.SignedPerm.odd_generator`).  The Hamiltonian is

    H = 1/2 sum over edges of T_e,    T_e = (-1)^{t(e)} c_head d_tail

with boundary(e) = head - tail in the chosen orientation.  The T_e touch
disjoint Majoranas, so they commute, and each squares to 1.  A product
of T_e over a set of edges flips the vertices of odd degree in that set,
so it fixes no basis vector unless the set is empty or every edge of a
circle.  When that one diagonal product is traceless too, every joint
eigenspace of the E edge terms has dimension 2^{n-E}: 2H has eigenvalues
-E + 2j with multiplicity C(E, j) 2^{n-E}, and the ground space is the
joint -1 eigenspace, the image of prod (1 - T_e).  Each of these facts is
checked exactly on every call, in O(E^2 2^n) integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Mapping, Sequence

import numpy as np

from .clifford import SignedPerm
from .errors import CapExceeded
from .exactla import fraction_rref, solve_in_span
from .pin1 import Circle, HasBoundary, Interval

__all__ = [
    "ChainSetup",
    "GroundStateReport",
    "ReferenceModule",
    "IntervalReport",
    "majorana_operators",
    "doubled_hamiltonian",
    "ground_states",
    "epsilon_operator",
    "reference_module",
    "interval_bimodule_check",
]

DEFAULT_VERTEX_CAP = 10


class ChainSetup:
    """A circle or interval with edge bits and an orientation.

    Vertices are numbered 0..n-1.  With orientation +1 edge i runs from
    vertex i (tail) to vertex i+1 (head), indices mod n on a circle;
    orientation -1 swaps every tail and head.
    """

    __slots__ = ("_component", "_orientation")

    def __init__(self, component: Circle | Interval, orientation: int = 1):
        if not isinstance(component, (Circle, Interval)):
            raise TypeError("component must be a Circle or an Interval")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self._component = component
        self._orientation = orientation

    @classmethod
    def circle(cls, edge_bits: Iterable[int], orientation: int = 1) -> ChainSetup:
        return cls(Circle(edge_bits), orientation)

    @classmethod
    def interval(cls, edge_bits: Iterable[int], orientation: int = 1) -> ChainSetup:
        return cls(Interval(edge_bits), orientation)

    @property
    def component(self) -> Circle | Interval:
        return self._component

    @property
    def orientation(self) -> int:
        return self._orientation

    @property
    def is_circle(self) -> bool:
        return isinstance(self._component, Circle)

    @property
    def edge_bits(self) -> tuple[int, ...]:
        return self._component.edge_bits

    @property
    def vertex_count(self) -> int:
        return self._component.vertex_count

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(tail, head, bit) per edge, in edge order."""
        bits = self._component.edge_bits
        n = self.vertex_count
        out = []
        for i, bit in enumerate(bits):
            tail, head = i, (i + 1) % n
            if self._orientation == -1:
                tail, head = head, tail
            out.append((tail, head, bit))
        return tuple(out)

    def reversed(self) -> ChainSetup:
        return ChainSetup(self._component, -self._orientation)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChainSetup)
            and self._component == other._component
            and self._orientation == other._orientation
        )

    def __hash__(self) -> int:
        return hash((self._component, self._orientation))

    def __repr__(self) -> str:
        kind = "circle" if self.is_circle else "interval"
        sign = "+" if self._orientation == 1 else "-"
        return f"ChainSetup({kind} {list(self.edge_bits)}, orientation {sign})"


def _majoranas(
    n: int,
) -> tuple[dict[int, SignedPerm], dict[int, SignedPerm]]:
    c = {v: SignedPerm.odd_generator(n, v, negative=False) for v in range(n)}
    d = {v: SignedPerm.odd_generator(n, v, negative=True) for v in range(n)}
    return c, d


def _edge_terms(
    setup: ChainSetup,
    c: Mapping[int, SignedPerm],
    d: Mapping[int, SignedPerm],
) -> list[SignedPerm]:
    """T_e = (-1)^{t(e)} c_head d_tail for every edge, in edge order."""
    terms = []
    for tail, head, bit in setup.edges:
        term = c[head].after(d[tail])
        terms.append(-term if bit else term)
    return terms


def _dense_sum(terms: Iterable[SignedPerm], dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.int64)
    cols = np.arange(dim)
    for term in terms:
        out[term.target, cols] += term.sign
    return out


def majorana_operators(
    setup: ChainSetup,
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """c_v and d_v for every vertex, as integer matrices on the subsets."""
    c, d = _majoranas(setup.vertex_count)
    return {v: (c[v].to_matrix(), d[v].to_matrix()) for v in c}


def doubled_hamiltonian(setup: ChainSetup) -> np.ndarray:
    """2H as an exact integer matrix, the sum of the edge terms."""
    n = setup.vertex_count
    return _dense_sum(_edge_terms(setup, *_majoranas(n)), 1 << n)


def _support_parities(vec: np.ndarray) -> set[int]:
    return {m.bit_count() & 1 for m in np.flatnonzero(vec).tolist()}


@dataclass(frozen=True)
class GroundStateReport:
    min_eigenvalue: Fraction
    ground_dimension: int
    ground_parity: str
    spectrum: tuple[tuple[Fraction, int], ...]


def _ground_data(
    setup: ChainSetup, cap: int
) -> tuple[GroundStateReport, list[np.ndarray]]:
    """The spectral report plus exact integer ground vectors.

    Every T_e flips two vertices (or none, on a one-vertex circle), so it
    preserves parity, and the flips connect all subsets of one parity.
    prod (1 - T_e) therefore maps the empty subset and the subset {0} onto
    vectors spanning the even and the odd part of the ground space; a
    part may be zero.
    """
    n = setup.vertex_count
    if n > cap:
        raise CapExceeded(f"{n} vertices exceed the configured cap of {cap}")
    dim = 1 << n
    terms = _edge_terms(setup, *_majoranas(n))
    edge_count = len(terms)
    ident = SignedPerm.identity(dim)
    for i, term in enumerate(terms):
        if term.after(term) != ident:
            raise ArithmeticError("an edge term does not square to 1")
        if any(term.after(u) != u.after(term) for u in terms[i + 1 :]):
            raise ArithmeticError("two edge terms do not commute")
    if setup.is_circle:
        product = ident
        for term in terms:
            product = term.after(product)
        if product.trace() != 0:
            raise ArithmeticError("the product of all edge terms has a trace")

    vectors: list[np.ndarray] = []
    found = {0: 0, 1: 0}
    for probe in (0, 1):
        vec = np.zeros(dim, dtype=np.int64)
        vec[probe] = 1
        for term in terms:
            vec = vec - term.apply(vec)
        if not vec.any():
            continue
        if any(np.any(term.apply(vec) != -vec) for term in terms):
            raise ArithmeticError("a ground vector is not in the -1 eigenspace")
        if _support_parities(vec) != {probe}:
            raise ArithmeticError("ground vector is not grading-homogeneous")
        found[probe] += 1
        vectors.append(vec)
    ground_dim = 1 << (n - edge_count)
    if len(vectors) != ground_dim:
        raise ArithmeticError(
            f"found {len(vectors)} ground vectors, expected {ground_dim}"
        )

    if found[0] and found[1]:
        parity = "mixed"
    elif found[0]:
        parity = "even"
    else:
        parity = "odd"
    spectrum = tuple(
        (Fraction(2 * j - edge_count, 2), comb(edge_count, j) * ground_dim)
        for j in range(edge_count + 1)
    )
    report = GroundStateReport(
        min_eigenvalue=Fraction(-edge_count, 2),
        ground_dimension=ground_dim,
        ground_parity=parity,
        spectrum=spectrum,
    )
    return report, vectors


def ground_states(
    setup: ChainSetup, cap: int = DEFAULT_VERTEX_CAP
) -> GroundStateReport:
    """Full spectrum of H with exact multiplicities, plus ground data."""
    report, _ = _ground_data(setup, cap)
    return report


def epsilon_operator(
    setup: ChainSetup, vertex_order: Sequence[int] | None = None
) -> np.ndarray:
    """The product of d_v c_v over all vertices of a circle.

    The factors d_v c_v commute (they touch disjoint generator pairs), so
    any vertex order gives the same matrix; the result acts on a degree-k
    subset by (-1)^{n-k}.
    """
    if not setup.is_circle:
        raise HasBoundary("the epsilon operator is defined on circles")
    n = setup.vertex_count
    if vertex_order is None:
        vertex_order = range(n)
    c, d = _majoranas(n)
    acc = SignedPerm.identity(1 << n)
    for v in vertex_order:
        acc = d[v].after(c[v]).after(acc)
    return acc.to_matrix()


@dataclass(frozen=True, eq=False)
class ReferenceModule:
    """Operators on the edge-indexed tensor module A.

    A is the tensor product over edges of a two-state factor; its basis is
    indexed by edge subsets (bit i = edge i odd).  c at an edge's head and
    d at its tail act on that edge's factor by the standard odd 2x2
    matrices, extended with the sign (-1)^{#odd factors before the edge}.
    """

    vertex_count: int
    c: dict[int, np.ndarray]
    d: dict[int, np.ndarray]
    epsilon: np.ndarray
    doubled_hamiltonian: np.ndarray


def reference_module(setup: ChainSetup) -> ReferenceModule:
    """The module A for a circle, with all operators as integer matrices.

    On a circle every vertex heads exactly one edge and tails exactly one,
    so each c_v and d_v acts on a single factor.  2H is diagonal on A and
    epsilon acts on degree-k vectors by (-1)^{k-1}.
    """
    if not setup.is_circle:
        raise HasBoundary("the reference module is built over a circle")
    n = setup.vertex_count
    dim = 1 << n
    c: dict[int, SignedPerm] = {}
    d: dict[int, SignedPerm] = {}
    for idx, (tail, head, _bit) in enumerate(setup.edges):
        c[head] = SignedPerm.odd_generator(n, idx, negative=False)
        d[tail] = SignedPerm.odd_generator(n, idx, negative=True)
    eps = SignedPerm.identity(dim)
    for v in range(n):
        eps = eps.after(d[v].after(c[v]))
    return ReferenceModule(
        vertex_count=n,
        c={v: op.to_matrix() for v, op in c.items()},
        d={v: op.to_matrix() for v, op in d.items()},
        epsilon=eps.to_matrix(),
        doubled_hamiltonian=_dense_sum(_edge_terms(setup, c, d), dim),
    )


@dataclass(frozen=True)
class IntervalReport:
    ground_dimension: int
    parity_split: tuple[int, int]
    boundary_commutes: bool
    plus_squares_to_identity: bool
    minus_squares_to_minus_identity: bool
    generators_anticommute: bool
    commutant_dimension: int
    irreducible: bool
    passed: bool


def _restrict(op: SignedPerm, vectors: list[np.ndarray]) -> np.ndarray:
    """The matrix of op on span(vectors), columns in the given basis, as an
    object array of Fractions."""
    basis = [vec.tolist() for vec in vectors]
    cols = []
    for vec in vectors:
        coeffs = solve_in_span(basis, op.apply(vec).tolist())
        if coeffs is None:
            raise ArithmeticError("operator does not preserve the ground space")
        cols.append(coeffs)
    return np.array(cols, dtype=object).T


def _commutant_dimension(gens: list[np.ndarray]) -> int:
    """dim of {M : MG = GM for all G}.  With row-major vec,
    vec(GM - MG) = (G (x) I - I (x) G^T) vec(M); the system is rational, so
    the dimension over any extension field equals the rational nullity."""
    ident = np.eye(len(gens[0]), dtype=object)
    rows = np.vstack([np.kron(g, ident) - np.kron(ident, g.T) for g in gens])
    _, pivots = fraction_rref(rows.tolist())
    return rows.shape[1] - len(pivots)


def interval_bimodule_check(
    setup: ChainSetup, cap: int = DEFAULT_VERTEX_CAP
) -> IntervalReport:
    """Boundary Majoranas on an interval: commutation, restriction, and
    irreducibility of the induced module on the 2-dimensional ground space.

    The boundary generators are c at the vertex that heads no edge and d at
    the vertex that tails none; they commute with every edge term, hence
    with H, so they act on the ground space, and that action should square
    to +1 and -1, anticommute, and generate a module with scalar commutant.
    """
    if setup.is_circle:
        raise ValueError("the bimodule check applies to intervals")
    n = setup.vertex_count
    report, vectors = _ground_data(setup, cap)
    heads = {head for _, head, _ in setup.edges}
    tails = {tail for tail, _, _ in setup.edges}
    (c_vertex,) = set(range(n)) - heads
    (d_vertex,) = set(range(n)) - tails
    c, d = _majoranas(n)
    c_op, d_op = c[c_vertex], d[d_vertex]
    terms = _edge_terms(setup, c, d)
    commutes = all(
        op.after(term) == term.after(op) for op in (c_op, d_op) for term in terms
    )

    c_r = _restrict(c_op, vectors)
    d_r = _restrict(d_op, vectors)
    ident = np.eye(len(vectors), dtype=object)
    plus_sq = np.array_equal(c_r @ c_r, ident)
    minus_sq = np.array_equal(d_r @ d_r, -ident)
    anti = np.array_equal(c_r @ d_r, -(d_r @ c_r))
    commutant_dim = _commutant_dimension([c_r, d_r])
    irreducible = len(vectors) == 2 and commutant_dim == 1

    even_found = sum(1 for vec in vectors if _support_parities(vec) == {0})
    passed = bool(
        report.ground_dimension == 2
        and commutes
        and plus_sq
        and minus_sq
        and anti
        and irreducible
    )
    return IntervalReport(
        ground_dimension=report.ground_dimension,
        parity_split=(even_found, len(vectors) - even_found),
        boundary_commutes=commutes,
        plus_squares_to_identity=plus_sq,
        minus_squares_to_minus_identity=minus_sq,
        generators_anticommute=anti,
        commutant_dimension=commutant_dim,
        irreducible=irreducible,
        passed=passed,
    )
