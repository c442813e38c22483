"""Combinatorial pin structures on compact 1-manifolds.

A structure on a triangulated 1-manifold is a bit per edge.  On a circle
the equivalence class of the structure is decided by the bit-sum mod 2:
odd sum gives the bounding circle, even sum the nonbounding one.  On an
interval the class is the bit-sum itself, with all-zero bits the identity
for concatenation.  The group of closed classes under disjoint union is
Z/2, generated by the nonbounding circle.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Iterable, Sequence

from .errors import HasBoundary

__all__ = [
    "Circle",
    "Interval",
    "Pin1Manifold",
    "CircleClass",
    "concatenate",
    "interval_class",
    "classify_circle",
    "bordism_class",
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

    @property
    def edge_count(self) -> int:
        return len(self._bits)

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


class Pin1Manifold:
    """A disjoint union of circle and interval components."""

    __slots__ = ("_components",)

    def __init__(self, components: Sequence[Circle | Interval]):
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, (Circle, Interval)):
                raise TypeError(f"component {c!r} is not a Circle or Interval")
        self._components = comps

    @property
    def components(self) -> tuple[Circle | Interval, ...]:
        return self._components

    def is_closed(self) -> bool:
        return all(isinstance(c, Circle) for c in self._components)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Pin1Manifold)
            and self._components == other._components
        )

    def __hash__(self) -> int:
        return hash(self._components)

    def __repr__(self) -> str:
        return f"Pin1Manifold({list(self._components)})"


def concatenate(i1: Interval, i2: Interval) -> Interval:
    """End-to-end gluing; the class of the result is the sum of classes."""
    return Interval(i1.edge_bits + i2.edge_bits)


def interval_class(i: Interval) -> int:
    """The interval's equivalence class in Z/2: its bit-sum mod 2.

    The all-zero interval is the identity for concatenation under this
    convention.
    """
    return i.bit_sum() % 2


def classify_circle(c: Circle) -> CircleClass:
    """Bounding iff the bit-sum is odd."""
    if c.bit_sum() % 2 == 1:
        return CircleClass.BOUNDING
    return CircleClass.NONBOUNDING


def bordism_class(m: Pin1Manifold) -> int:
    """The class of a closed 1-manifold in Z/2: nonbounding circles mod 2."""
    intervals = [c for c in m.components if isinstance(c, Interval)]
    if intervals:
        raise HasBoundary(
            f"manifold has {len(intervals)} interval component(s);"
            " bordism class needs a closed manifold"
        )
    count = sum(
        1
        for c in m.components
        if classify_circle(c) is CircleClass.NONBOUNDING
    )
    return count % 2
