"""Combinatorial 1-manifolds with edge decorations and their classes."""

import random

import numpy as np

import pytest

from arfbrown.majorana import ChainSetup
from arfbrown.pin1 import Circle, CircleClass, Interval, classify_circle


def test_component_validation():
    with pytest.raises(ValueError):
        Circle(())
    with pytest.raises(ValueError):
        Circle((0, 2))
    with pytest.raises(ValueError):
        Interval(())


def test_edge_bits_are_integers_not_truncated_floats():
    with pytest.raises(TypeError):
        Circle([0.7, 1.2])
    assert Circle([np.int64(1), True, 0]).edge_bits == (1, 1, 0)


def test_vertex_counts():
    assert Circle((0, 1, 0)).vertex_count == 3
    assert Interval((0, 1, 0)).vertex_count == 4
    assert Circle((1,)).vertex_count == 1


def test_circle_and_interval_with_equal_bits_differ():
    for bits in [(0,), (1, 0), (0, 1, 1)]:
        assert Circle(bits) != Interval(bits)
        assert Interval(bits) != Circle(bits)
        assert ChainSetup.circle(bits) != ChainSetup.interval(bits)
        assert Circle(bits) == Circle(list(bits))
        assert hash(Circle(bits)) == hash(("Circle", bits))
        assert hash(Interval(bits)) == hash(("Interval", bits))
        assert repr(Interval(bits)) == f"Interval({list(bits)})"


def test_classify_circle_by_bit_sum():
    assert classify_circle(Circle((1,))) is CircleClass.BOUNDING
    assert classify_circle(Circle((0,))) is CircleClass.NONBOUNDING
    assert classify_circle(Circle((1, 1))) is CircleClass.NONBOUNDING
    assert classify_circle(Circle((1, 0, 0))) is CircleClass.BOUNDING


def test_classification_depends_only_on_bit_sum():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 8)
        bits = [rng.randint(0, 1) for _ in range(n)]
        c = classify_circle(Circle(bits))
        rng.shuffle(bits)
        assert classify_circle(Circle(bits)) is c
        # subdividing an edge into two with a 0 bit preserves the class
        assert classify_circle(Circle(bits + [0])) is c
