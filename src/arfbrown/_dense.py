"""Dense integer matrices of the Majorana chain, on signed permutations.

Every chain operator is a signed generator word, numbered as in
`clifford.evaluate_on_empty` (2v is c_v, 2v+1 is d_v); this module renders
such words on the subset basis.  Only the `majorana` functions that return
numpy matrices import it, inside their bodies, so numpy stays off the
command-line path.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["SignedPerm", "majoranas", "render", "dense_sum"]


class SignedPerm:
    """A signed permutation of the subset basis of (C^{1|1})^{(x) n}: basis
    vector m (bit v set: factor v odd) goes to sign[m] * e_{target[m]}."""

    __slots__ = ("target", "sign")

    def __init__(self, target: np.ndarray, sign: np.ndarray):
        self.target = target
        self.sign = sign

    def after(self, first: SignedPerm) -> SignedPerm:
        """self composed after first (apply first, then self)."""
        return SignedPerm(
            self.target[first.target], first.sign * self.sign[first.target]
        )

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


def render(
    word: Sequence[int],
    c: Mapping[int, SignedPerm],
    d: Mapping[int, SignedPerm],
) -> SignedPerm:
    """The product g_{w0} g_{w1} ... of a nonempty generator word, with
    generator 2v read as c[v] and 2v+1 as d[v]."""
    return reduce(SignedPerm.after, (d[g >> 1] if g & 1 else c[g >> 1] for g in word))


def dense_sum(
    terms: Iterable[tuple[int, Sequence[int]]],
    c: Mapping[int, SignedPerm],
    d: Mapping[int, SignedPerm],
    dim: int,
) -> np.ndarray:
    """The sum of signed words (sign, word), as a dim x dim integer matrix."""
    out = np.zeros((dim, dim), dtype=np.int64)
    cols = np.arange(dim)
    for sign, word in terms:
        term = render(word, c, d)
        out[term.target, cols] += sign * term.sign
    return out
