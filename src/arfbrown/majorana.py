"""The time-reversal-invariant Majorana chain, exactly.

Each function takes a decorated circle or interval, a `pin1.ChainSetup`,
whose edges give the tail, head and bit of every term.  The state space on
n vertices is spanned by the subsets of the vertex set (dimension 2^n,
graded by subset size mod 2).  c_v and d_v are the +1 and -1 generators
of the v-th C^{1|1} factor, numbered 2v and 2v+1 in the words of
`clifford.evaluate_on_empty`.  The Hamiltonian is

    H = 1/2 sum over edges of T_e,    T_e = (-1)^{t(e)} c_head d_tail

with boundary(e) = head - tail in the chosen orientation.  Each call checks
that every T_e squares to 1 and that no generator occurs in two of them,
so they commute, and every nonempty product of them is a non-scalar, hence
traceless, monomial: 2H has eigenvalues -E + 2j with multiplicity
C(E, j) 2^{n-E}, and the ground space is the image of P = prod (1 - T_e).
So `ground_states` reports n, E and the ground parity, and its report
writes the spectrum out only on request.  The ground parity and the
boundary action are word evaluations, with no 2^n vector and no size cap;
the command line bounds the vertex count.
Every operator here is one signed word (`_edge_terms`, `_epsilon_word`),
and the dense matrices are those words rendered by `_dense`, the one
module that needs numpy.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod
from typing import TYPE_CHECKING, Iterator, NamedTuple, Sequence

from .clifford import evaluate_on_empty
from .errors import CertificateError, HasBoundary
from .pin1 import ChainSetup  # also bound here, for perfbench/worker.py

if TYPE_CHECKING:
    import numpy as np

__all__ = [
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


def _edge_terms(setup: ChainSetup) -> list[tuple[int, list[int]]]:
    """(sign, word) of T_e = (-1)^{t(e)} c_head d_tail, in edge order."""
    return [
        (-1 if bit else 1, [2 * head, 2 * tail + 1])
        for tail, head, bit in setup.edges
    ]


def _epsilon_word(n: int) -> list[int]:
    """d_v c_v for every vertex.  The pairs touch disjoint generators, so
    they commute and any vertex order gives the same operator."""
    return [g for v in range(n) for g in (2 * v + 1, 2 * v)]


def _edge_words(setup: ChainSetup) -> list[tuple[int, list[int]]]:
    """The edge terms, certified: CertificateError unless each squares to 1
    and no generator occurs in two of them (then they commute)."""
    words = _edge_terms(setup)
    if any(evaluate_on_empty([*word, *word]) != (1, 0) for _, word in words):
        raise CertificateError("an edge term does not square to 1")
    used = [g for _, word in words for g in word]
    if len(set(used)) != len(used):
        raise CertificateError(
            "two edge terms share a Majorana generator, so they need not commute"
        )
    return words


def majorana_operators(setup: ChainSetup) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """c_v and d_v for every vertex, as integer matrices on the subsets."""
    from . import _dense

    c, d = _dense.majoranas(setup.vertex_count)
    return {v: (c[v].to_matrix(), d[v].to_matrix()) for v in c}


def doubled_hamiltonian(setup: ChainSetup) -> np.ndarray:
    """2H as an exact integer matrix, the sum of the edge terms."""
    from . import _dense

    n = setup.vertex_count
    return _dense.dense_sum(_edge_terms(setup), *_dense.majoranas(n), 1 << n)


class GroundStateReport(NamedTuple):
    """A chain's vertex and edge count, which fix its spectrum, and its
    certified ground parity: three fields at any size.  `doubled_spectrum`
    yields the eigenvalues of 2H with their multiplicities as integers, and
    `spectrum` those of H as Fractions."""

    vertex_count: int
    edge_count: int
    ground_parity: str

    @property
    def min_eigenvalue(self) -> Fraction:
        return Fraction(-self.edge_count, 2)

    @property
    def ground_dimension(self) -> int:
        return 1 << (self.vertex_count - self.edge_count)

    def doubled_spectrum(self) -> Iterator[tuple[int, int]]:
        """(2 lambda, multiplicity) for each eigenvalue lambda of H, from
        the lowest, C(E, j) 2^{n-E} at 2 lambda = -E + 2j."""
        edges, mult = self.edge_count, self.ground_dimension
        for j in range(edges + 1):
            yield 2 * j - edges, mult
            mult = mult * (edges - j) // (j + 1)

    def spectrum(self) -> tuple[tuple[Fraction, int], ...]:
        """(lambda, multiplicity) for each eigenvalue lambda of H, from the
        lowest."""
        return tuple((Fraction(lam, 2), mult) for lam, mult in self.doubled_spectrum())


def ground_states(setup: ChainSetup) -> GroundStateReport:
    """The certified spectral report of H: vertex and edge count, from
    which the spectrum follows, and the ground parity."""
    return _ground_report(setup)[0]


def _ground_report(setup: ChainSetup) -> tuple[GroundStateReport, list]:
    """`ground_states`, and the certified edge terms it was computed from."""
    words = _edge_words(setup)
    edge_count = len(words)
    if setup.is_circle:
        # the product of all T_e uses every generator once, so it is
        # +-(-1)^F, and it is (-1)^E on the ground line
        sign, mask = evaluate_on_empty([g for _, word in words for g in word])
        if mask:
            raise CertificateError("the product of all T_e moves the empty subset")
        sign *= prod(s for s, _ in words) * (-1) ** edge_count
        parity = "odd" if sign == -1 else "even"
    else:
        # c at the vertex that heads no edge is odd and commutes with every
        # T_e, so it swaps the even and the odd ground line
        parity = "mixed"
    return GroundStateReport(setup.vertex_count, edge_count, parity), words


def epsilon_operator(setup: ChainSetup) -> np.ndarray:
    """The product of d_v c_v over all vertices of a circle; it acts on a
    degree-k subset by (-1)^{n-k}."""
    from . import _dense

    if not setup.is_circle:
        raise HasBoundary("the epsilon operator is defined on circles")
    n = setup.vertex_count
    return _dense.render(_epsilon_word(n), *_dense.majoranas(n)).to_matrix()


class ReferenceModule(NamedTuple):
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

    # numpy arrays have no truth value, so a module equals only itself
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


def reference_module(setup: ChainSetup) -> ReferenceModule:
    """The module A for a circle, with all operators as integer matrices.

    On a circle every vertex heads exactly one edge and tails exactly one,
    so each c_v and d_v acts on a single factor.  The words of 2H and
    epsilon are those of the chain, rendered on this relabelled table; 2H is
    diagonal on A and epsilon acts on degree-k vectors by (-1)^{k-1}.
    """
    from . import _dense

    if not setup.is_circle:
        raise HasBoundary("the reference module is built over a circle")
    n = setup.vertex_count
    factor_c, factor_d = _dense.majoranas(n)
    c, d = {}, {}
    for idx, (tail, head, _bit) in enumerate(setup.edges):
        c[head], d[tail] = factor_c[idx], factor_d[idx]
    return ReferenceModule(
        vertex_count=n,
        c={v: op.to_matrix() for v, op in c.items()},
        d={v: op.to_matrix() for v, op in d.items()},
        epsilon=_dense.render(_epsilon_word(n), c, d).to_matrix(),
        doubled_hamiltonian=_dense.dense_sum(_edge_terms(setup), c, d, 1 << n),
    )


class IntervalReport(NamedTuple):
    ground_dimension: int
    parity_split: tuple[int, int]
    boundary_commutes: bool
    plus_squares_to_identity: bool
    minus_squares_to_minus_identity: bool
    generators_anticommute: bool
    commutant_dimension: int
    irreducible: bool
    passed: bool


# the words of e_0 (the empty subset) and e_1 (the subset {0}); P maps them
# onto the even and the odd ground line of an interval
_PROBES = ((), (0,))


def _restrict(
    words: list[tuple[int, list[int]]], used: set[int], word: Sequence[int]
) -> list[list[int]]:
    """The 2x2 matrix of an odd monomial on an interval's ground space, in
    the basis (P e_0, P e_1).

    A word that shares no generator with an edge term commutes with P and
    maps P e_probe to sigma P e_m.  On a path one edge set S flips the other
    probe's subset onto m: edge i (joining vertices i, i+1) is in S iff an
    odd number of flipped vertices lie in 0..i.  Then e_m = rho T_S e_other
    and P T_S = (-1)^|S| P, so the entry is sigma rho (-1)^|S|.  `used`
    is the set of generators of the edge terms.
    """
    if used.intersection(word):
        raise CertificateError(
            "the operator shares a generator with an edge term,"
            " so it does not preserve the ground space"
        )
    out = [[0, 0], [0, 0]]
    for parity, probe in enumerate(_PROBES):
        sign, m = evaluate_on_empty([*word, *probe])
        other = 1 - parity  # the other probe's subset mask
        flipped, inside, path = m ^ other, 0, []
        for i, (s, w) in enumerate(words):
            inside ^= (flipped >> i) & 1
            if inside:
                path += w
                sign *= -s
        rho, reached = evaluate_on_empty([*path, *_PROBES[other]])
        if reached != m:
            raise CertificateError(
                "no edge set carries the other ground line onto the image"
            )
        out[other][parity] = sign * rho
    return out


def _mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[a[i][0] * b[0][j] + a[i][1] * b[1][j] for j in (0, 1)] for i in (0, 1)]


def _commutant_dimension(gens: list[list[list[int]]]) -> int:
    """dim of {M : MG = GM for all G} for 2x2 generators.  A non-scalar A
    commutes only with span{I, A}, so it is 4 if every generator is scalar,
    1 if two of them do not commute, and 2 otherwise."""
    moving = [g for g in gens if g[0][1] or g[1][0] or g[0][0] != g[1][1]]
    if not moving:
        return 4
    return 2 if all(_mul(moving[0], g) == _mul(g, moving[0]) for g in moving) else 1


def interval_bimodule_check(setup: ChainSetup) -> IntervalReport:
    """Boundary Majoranas on an interval: commutation, restriction, and
    irreducibility of the induced module on the 2-dimensional ground space.

    The boundary generators are c at the vertex that heads no edge and d at
    the vertex that tails none; they share no generator with any edge term
    (`_restrict` raises otherwise), so they commute with H and act on the
    ground space, and that action should square to +1 and -1, anticommute,
    and generate a module with scalar commutant.
    """
    if setup.is_circle:
        raise ValueError("the bimodule check applies to intervals")
    report, words = _ground_report(setup)
    used = {g for _, word in words for g in word}
    n = setup.vertex_count
    (c_gen,) = set(range(0, 2 * n, 2)) - used
    (d_gen,) = set(range(1, 2 * n, 2)) - used
    c_r = _restrict(words, used, [c_gen])
    d_r = _restrict(words, used, [d_gen])
    plus_sq = _mul(c_r, c_r) == [[1, 0], [0, 1]]
    minus_sq = _mul(d_r, d_r) == [[-1, 0], [0, -1]]
    anti = _mul(c_r, d_r) == [[-v for v in row] for row in _mul(d_r, c_r)]
    commutant_dim = _commutant_dimension([c_r, d_r])
    irreducible = report.ground_dimension == 2 and commutant_dim == 1
    return IntervalReport(
        ground_dimension=report.ground_dimension,
        parity_split=(
            int(report.ground_parity != "odd"),
            int(report.ground_parity != "even"),
        ),
        boundary_commutes=True,
        plus_squares_to_identity=plus_sq,
        minus_squares_to_minus_identity=minus_sq,
        generators_anticommute=anti,
        commutant_dimension=commutant_dim,
        irreducible=irreducible,
        passed=plus_sq and minus_sq and anti and irreducible,
    )
