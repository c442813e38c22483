"""Gaussian rationals on reduced integer triples, checked against the
Fraction-pair oracle in ``gaussian_oracle``, and the round trip of the
command line's Gaussian-rational literals."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.clifford import GaussianRational
from arfbrown.commands.tqft import _render_gaussian, parse_theory
from gaussian_oracle import PairGaussian

_SETTINGS = settings(max_examples=200, deadline=None, database=None)

rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-30, max_value=30, max_denominator=40),
)
pairs = st.tuples(rationals, rationals)


def _both(pair):
    return GaussianRational(*pair), PairGaussian(*pair)


def _agree(g, p):
    assert isinstance(g, GaussianRational)
    assert type(g.re) is Fraction and type(g.im) is Fraction
    assert (g.re, g.im) == (p.re, p.im)
    assert repr(g) == repr(p)


def _is_reduced(g):
    a, b, d = g._a, g._b, g._d
    return d > 0 and gcd(a, b, d) == 1


@_SETTINGS
@given(pairs)
def test_construction_is_a_reduced_triple(pair):
    g, p = _both(pair)
    _agree(g, p)
    assert _is_reduced(g)
    assert _is_reduced(GaussianRational.coerce(pair[0]))


@_SETTINGS
@given(pairs, pairs)
def test_field_operations_match_the_oracle(x, y):
    (g, p), (h, q) = _both(x), _both(y)
    _agree(g * h, p * q)
    assert g.is_zero() == p.is_zero()
    if q.is_zero():
        with pytest.raises(ZeroDivisionError):
            h.inverse()
    else:
        _agree(g * h.inverse(), p / q)
        _agree(h.inverse(), q.inverse())
        assert _is_reduced(h.inverse())
    assert _is_reduced(g * h)


@_SETTINGS
@given(pairs, rationals)
def test_mixed_operations_with_int_and_fraction(x, c):
    g, p = _both(x)
    _agree(g * c, p * c)
    _agree(c * g, c * p)
    if not p.is_zero():
        _agree(c * g.inverse(), c / p)


@_SETTINGS
@given(pairs, st.integers(-20, 20))
def test_powers_match_the_oracle(x, n):
    g, p = _both(x)
    if p.is_zero() and n < 0:
        with pytest.raises(ZeroDivisionError):
            g**n
        return
    _agree(g**n, p**n)
    assert _is_reduced(g**n)


@_SETTINGS
@given(pairs, rationals)
def test_equality_and_hash_against_int_and_fraction(x, c):
    g, p = _both(x)
    for other in (c, Fraction(c)):
        assert (g == other) == (p == other)
        assert (g != other) == (p != other)
        if g == other:
            assert hash(g) == hash(other)
    real = GaussianRational(x[0])
    assert real == Fraction(x[0]) and hash(real) == hash(Fraction(x[0]))
    assert (g == GaussianRational(*x)) and hash(g) == hash(GaussianRational(*x))


def test_equality_with_other_types_is_false():
    assert GaussianRational(1) != 1.0
    assert GaussianRational(1) != "1"
    with pytest.raises(TypeError):
        GaussianRational.coerce(1.0)


@_SETTINGS
@given(pairs)
def test_rendered_literal_parses_back(x):
    g = GaussianRational(*x)
    if g.is_zero():
        return
    text = _render_gaussian(g)
    assert parse_theory(f"ab=1 euler={text}").euler_weight == g
