"""Dense integer matrices of the Majorana chain, on signed permutations.

Only the `majorana` functions that return numpy matrices import this
module, inside their bodies, so numpy stays off the command-line path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

if TYPE_CHECKING:
    from .majorana import ChainSetup

__all__ = ["SignedPerm", "majoranas", "edge_terms", "dense_sum", "epsilon"]


class SignedPerm:
    """A signed permutation of the subset basis of (C^{1|1})^{(x) n}: basis
    vector m (bit v set: factor v odd) goes to sign[m] * e_{target[m]}."""

    __slots__ = ("target", "sign")

    def __init__(self, target: np.ndarray, sign: np.ndarray):
        self.target = target
        self.sign = sign

    @classmethod
    def identity(cls, dim: int) -> SignedPerm:
        return cls(np.arange(dim, dtype=np.int64), np.ones(dim, dtype=np.int64))

    def after(self, first: SignedPerm) -> SignedPerm:
        """self composed after first (apply first, then self)."""
        return SignedPerm(
            self.target[first.target], first.sign * self.sign[first.target]
        )

    def __neg__(self) -> SignedPerm:
        return SignedPerm(self.target, -self.sign)

    def to_matrix(self) -> np.ndarray:
        dim = len(self.target)
        out = np.zeros((dim, dim), dtype=np.int64)
        out[self.target, np.arange(dim)] = self.sign
        return out


def majoranas(n: int) -> tuple[dict[int, SignedPerm], dict[int, SignedPerm]]:
    """Every factor's +1 and -1 generator (the cl11_rep pair), as c and d.

    Factor v's generators flip bit v with the Koszul sign (-1)^{number of
    odd factors before v}; the -1 generator also negates the lowering
    (odd -> even) transitions.  One running prefix parity gives all the
    signs in O(n 2^n).
    """
    masks = np.arange(1 << n, dtype=np.int64)
    koszul = np.ones_like(masks)
    c: dict[int, SignedPerm] = {}
    d: dict[int, SignedPerm] = {}
    for v in range(n):
        # the -1 generator's sign is also the next factor's Koszul sign
        lowered = koszul * (1 - 2 * ((masks >> v) & 1))
        c[v] = SignedPerm(masks ^ (1 << v), koszul)
        d[v] = SignedPerm(c[v].target, lowered)
        koszul = lowered
    return c, d


def edge_terms(
    setup: ChainSetup,
    c: Mapping[int, SignedPerm],
    d: Mapping[int, SignedPerm],
) -> list[SignedPerm]:
    """T_e = (-1)^{t(e)} c_head d_tail for every edge, in edge order."""
    terms = [(c[head].after(d[tail]), bit) for tail, head, bit in setup.edges]
    return [-term if bit else term for term, bit in terms]


def dense_sum(terms: Iterable[SignedPerm], dim: int) -> np.ndarray:
    out = np.zeros((dim, dim), dtype=np.int64)
    cols = np.arange(dim)
    for term in terms:
        out[term.target, cols] += term.sign
    return out


def epsilon(
    c: Mapping[int, SignedPerm], d: Mapping[int, SignedPerm], order: Iterable[int]
) -> SignedPerm:
    """The product of d_v c_v over the vertices in order.  The factors
    commute (they touch disjoint generator pairs), so the order is free."""
    acc = SignedPerm.identity(c[0].target.size)
    for v in order:
        acc = d[v].after(c[v]).after(acc)
    return acc
