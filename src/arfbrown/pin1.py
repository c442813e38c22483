"""Combinatorial pin- structures on compact 1-manifolds.

A structure on a triangulated circle or interval is a bit per edge.  The
named tuple `ChainSetup(bits, is_circle, orientation)`, equal by value, is
the one type of a decorated 1-manifold, and `majorana` builds its chain on
it.  A circle's class is the bit-sum mod 2: odd gives the bounding circle,
even the nonbounding one.  An interval has no class.
"""

from __future__ import annotations

import operator
from typing import Iterable, NamedTuple

from .errors import HasBoundary

__all__ = ["ChainSetup", "classify_circle"]


class ChainSetup(
    NamedTuple("ChainSetup", [("bits", tuple), ("is_circle", bool), ("orientation", int)])
):
    """A circle or interval with one bit per edge and an orientation.

    n edges meet n vertices on a circle and n+1 on an interval, numbered
    from 0.  With orientation +1 edge i runs from vertex i (tail) to vertex
    i+1 (head), indices mod n on a circle; orientation -1 swaps every tail
    and head.  Only the constructor validates, not `_make` or `_replace`.
    """

    __slots__ = ()

    def __new__(cls, edge_bits: Iterable[int], is_circle: bool, orientation: int = 1):
        bits = tuple(map(operator.index, edge_bits))
        if not bits:
            raise ValueError("a component needs at least one edge")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("edge bits must be 0 or 1")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        return super().__new__(cls, bits, bool(is_circle), orientation)

    @classmethod
    def circle(cls, edge_bits: Iterable[int], orientation: int = 1) -> ChainSetup:
        return cls(edge_bits, True, orientation)

    @classmethod
    def interval(cls, edge_bits: Iterable[int], orientation: int = 1) -> ChainSetup:
        return cls(edge_bits, False, orientation)

    @property
    def vertex_count(self) -> int:
        return len(self.bits) + (not self.is_circle)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(tail, head, bit) per edge, in edge order."""
        n, flip = self.vertex_count, self.orientation == -1
        return tuple(
            ((i + 1) % n, i, bit) if flip else (i, (i + 1) % n, bit)
            for i, bit in enumerate(self.bits)
        )


def classify_circle(setup: ChainSetup) -> str:
    """A circle's class: "bounding" iff the bit-sum is odd, else
    "nonbounding".  An interval has none (HasBoundary)."""
    if not setup.is_circle:
        raise HasBoundary("an interval has no circle class")
    return "bounding" if sum(setup.bits) % 2 else "nonbounding"
