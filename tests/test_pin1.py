"""Combinatorial 1-manifolds with edge decorations and their classes."""

import random

import numpy as np

import pytest

from arfbrown.errors import HasBoundary
from arfbrown.pin1 import ChainSetup, classify_circle


def test_component_validation():
    with pytest.raises(ValueError):
        ChainSetup.circle(())
    with pytest.raises(ValueError):
        ChainSetup.circle((0, 2))
    with pytest.raises(ValueError):
        ChainSetup.interval(())


def test_edge_bits_are_integers_not_truncated_floats():
    with pytest.raises(TypeError):
        ChainSetup.circle([0.7, 1.2])
    setup = ChainSetup.circle([np.int64(1), True, 0])
    assert setup == ChainSetup.circle((1, 1, 0))
    assert [bit for _, _, bit in setup.edges] == [1, 1, 0]


def test_vertex_counts():
    assert ChainSetup.circle((0, 1, 0)).vertex_count == 3
    assert ChainSetup.interval((0, 1, 0)).vertex_count == 4
    assert ChainSetup.circle((1,)).vertex_count == 1


def test_circle_and_interval_with_equal_bits_differ():
    for bits in [(0,), (1, 0), (0, 1, 1)]:
        assert ChainSetup.circle(bits) != ChainSetup.interval(bits)
        assert ChainSetup.interval(bits) != ChainSetup.circle(bits)
        assert ChainSetup.circle(bits) == ChainSetup(list(bits), True)
        assert ChainSetup.interval(bits) == ChainSetup(bits, False, 1)
        assert hash(ChainSetup.circle(bits)) == hash(ChainSetup.circle(list(bits)))


def test_classify_circle_by_bit_sum():
    assert classify_circle(ChainSetup.circle((1,))) == "bounding"
    assert classify_circle(ChainSetup.circle((0,))) == "nonbounding"
    assert classify_circle(ChainSetup.circle((1, 1))) == "nonbounding"
    assert classify_circle(ChainSetup.circle((1, 0, 0))) == "bounding"


def test_classify_circle_rejects_an_interval():
    for bits in [(1,), (0,), (1, 1, 0)]:
        with pytest.raises(HasBoundary):
            classify_circle(ChainSetup.interval(bits))


def test_classification_depends_only_on_bit_sum():
    rng = random.Random(41)
    for _ in range(50):
        n = rng.randint(1, 8)
        bits = [rng.randint(0, 1) for _ in range(n)]
        c = classify_circle(ChainSetup.circle(bits))
        rng.shuffle(bits)
        assert classify_circle(ChainSetup.circle(bits, -1)) == c
        # subdividing an edge into two with a 0 bit preserves the class
        assert classify_circle(ChainSetup.circle(bits + [0])) == c
