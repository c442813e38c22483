"""Combinatorial pin structures on compact 1-manifolds.

A structure on a triangulated circle or interval is a bit per edge.  On a
circle the equivalence class of the structure is decided by the bit-sum
mod 2: odd sum gives the bounding circle, even sum the nonbounding one.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Iterable

__all__ = [
    "Circle",
    "Interval",
    "CircleClass",
    "classify_circle",
]


class CircleClass(Enum):
    """The two structures on a circle, up to equivalence."""

    BOUNDING = "bounding"
    NONBOUNDING = "nonbounding"


class _Component:
    """A component with one bit per edge; equal only to the same kind."""

    __slots__ = ("_bits",)

    def __init__(self, edge_bits: Iterable[int]):
        bits = tuple(map(operator.index, edge_bits))
        if not bits:
            raise ValueError("a component needs at least one edge")
        if any(b not in (0, 1) for b in bits):
            raise ValueError("edge bits must be 0 or 1")
        self._bits = bits

    @property
    def edge_bits(self) -> tuple[int, ...]:
        return self._bits

    def bit_sum(self) -> int:
        return sum(self._bits)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._bits == other._bits

    def __hash__(self) -> int:
        return hash((type(self).__name__, self._bits))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({list(self._bits)})"


class Circle(_Component):
    """A circle with one bit per edge; n edges meet n vertices."""

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self._bits)


class Interval(_Component):
    """An interval with one bit per edge; n edges meet n+1 vertices."""

    __slots__ = ()

    @property
    def vertex_count(self) -> int:
        return len(self._bits) + 1


def classify_circle(c: Circle) -> CircleClass:
    """Bounding iff the bit-sum is odd."""
    if c.bit_sum() % 2 == 1:
        return CircleClass.BOUNDING
    return CircleClass.NONBOUNDING
