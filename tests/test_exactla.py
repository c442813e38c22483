"""Exact rational and modular linear algebra used by the spectral code."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.exactla import (
    MOD_PRIMES,
    fraction_rref,
    modular_nullity,
    rational_nullity,
    solve_in_span,
)


def _random_int_matrix(rng, nrows, ncols, bound=5):
    return np.array(
        [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)],
        dtype=np.int64,
    )


def test_modular_agrees_with_rational_on_random_matrices():
    rng = random.Random(47)
    for _ in range(40):
        m = _random_int_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        rat = rational_nullity(m)
        for p in MOD_PRIMES:
            # a modular nullity can only overshoot, and for random small
            # integer matrices it matches
            assert modular_nullity(m, p) == rat


def test_modular_nullity_can_overshoot():
    p = MOD_PRIMES[0]
    m = np.array([[p]], dtype=np.int64)
    assert modular_nullity(m, p) == 1
    assert rational_nullity(m) == 0


def test_rref_pivots_are_unit_columns():
    rng = random.Random(53)
    for _ in range(20):
        m = _random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        rows = [[Fraction(int(x)) for x in row] for row in m]
        red, pivots = fraction_rref(rows)
        for k, j in enumerate(pivots):
            assert red[k][j] == 1
            assert all(red[r][j] == 0 for r in range(len(red)) if r != k)


def test_solve_in_span_roundtrip():
    rng = random.Random(61)
    for _ in range(30):
        dim = rng.randint(2, 6)
        k = rng.randint(1, dim)
        basis = [
            [Fraction(rng.randint(-3, 3)) for _ in range(dim)] for _ in range(k)
        ]
        coeffs = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)]
        target = [
            sum(c * b[i] for c, b in zip(coeffs, basis)) for i in range(dim)
        ]
        sol = solve_in_span(basis, target)
        assert sol is not None
        rebuilt = [
            sum(c * b[i] for c, b in zip(sol, basis)) for i in range(dim)
        ]
        assert rebuilt == target


def test_solve_in_span_detects_outside_vectors():
    basis = [[Fraction(1), Fraction(0), Fraction(0)]]
    assert solve_in_span(basis, [Fraction(0), Fraction(1), Fraction(0)]) is None


@st.composite
def _sparse_int_matrices(draw):
    """Up to 8x8, with zero columns, zero rows and rows that combine two
    others, so that ranks fall short."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 8))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1)))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("free", "zero", "combination")))
        if kind == "combination" and len(rows) >= 2:
            k = draw(st.integers(-3, 3))
            rows.append([k * a - b for a, b in zip(rows[0], rows[-1])])
        elif kind == "zero":
            rows.append([0] * ncols)
        else:
            row = draw(st.lists(st.integers(-9, 9), min_size=ncols, max_size=ncols))
            rows.append([0 if c in zero_cols else v for c, v in enumerate(row)])
    return rows


@settings(max_examples=300, deadline=None, database=None)
@given(_sparse_int_matrices())
def test_rational_nullity_agrees_with_fraction_rref(rows):
    ncols = len(rows[0]) if rows else 0
    _, pivots = fraction_rref(rows)
    assert rational_nullity(rows) == ncols - len(pivots)
