"""Combinatorial pin- structures on compact 1-manifolds.

A structure on a triangulated circle or interval is a bit per edge.  A
`ChainSetup` holds those bits, the kind of the 1-manifold and an
orientation; it is the one type of a decorated 1-manifold, and `majorana`
builds its chain on it.  On a circle the equivalence class of the structure
is decided by the bit-sum mod 2: odd sum gives the bounding circle, even
sum the nonbounding one.  An interval has no class.
"""

from __future__ import annotations

import operator
from typing import Iterable

from .errors import HasBoundary

__all__ = ["ChainSetup", "classify_circle"]


class ChainSetup:
    """A circle or interval with one bit per edge and an orientation.

    n edges meet n vertices on a circle and n+1 on an interval, numbered
    from 0.  With orientation +1 edge i runs from vertex i (tail) to vertex
    i+1 (head), indices mod n on a circle; orientation -1 swaps every tail
    and head.
    """

    __slots__ = ("_bits", "_is_circle", "_orientation")

    def __init__(self, edge_bits: Iterable[int], is_circle: bool, orientation: int = 1):
        bits = tuple(map(operator.index, edge_bits))
        if not bits:
            raise ValueError("a component needs at least one edge")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("edge bits must be 0 or 1")
        if orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")
        self._bits = bits
        self._is_circle = bool(is_circle)
        self._orientation = orientation

    @classmethod
    def circle(cls, edge_bits: Iterable[int], orientation: int = 1) -> ChainSetup:
        return cls(edge_bits, True, orientation)

    @classmethod
    def interval(cls, edge_bits: Iterable[int], orientation: int = 1) -> ChainSetup:
        return cls(edge_bits, False, orientation)

    @property
    def is_circle(self) -> bool:
        return self._is_circle

    @property
    def vertex_count(self) -> int:
        return len(self._bits) + (not self._is_circle)

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(tail, head, bit) per edge, in edge order."""
        n, flip = self.vertex_count, self._orientation == -1
        return tuple(
            ((i + 1) % n, i, bit) if flip else (i, (i + 1) % n, bit)
            for i, bit in enumerate(self._bits)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ChainSetup)
            and self._bits == other._bits
            and self._is_circle == other._is_circle
            and self._orientation == other._orientation
        )

    def __hash__(self) -> int:
        return hash((self._bits, self._is_circle, self._orientation))

    def __repr__(self) -> str:
        kind = "circle" if self._is_circle else "interval"
        sign = "+" if self._orientation == 1 else "-"
        return f"ChainSetup({kind} {list(self._bits)}, orientation {sign})"


def classify_circle(setup: ChainSetup) -> str:
    """A circle's class: "bounding" iff the bit-sum is odd, else
    "nonbounding".  An interval has none (HasBoundary)."""
    if not setup.is_circle:
        raise HasBoundary("an interval has no circle class")
    return "bounding" if sum(setup._bits) % 2 else "nonbounding"
