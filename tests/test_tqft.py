"""Theory values on points, circles, and enhanced closed surfaces."""

import operator
import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.clifford import GaussianRational, Signature
from arfbrown.pin1 import ChainSetup, classify_circle
from arfbrown.quadform import Enhancement, arf, arf_brown
from arfbrown.surface import (
    GluingScheme,
    analyze,
    intersection_form,
    orientable_scheme,
)
from arfbrown.tqft import (
    TheoryClass,
    consistency_report,
    evaluate_circle,
    evaluate_point,
    expected_ground,
    is_stable,
    partition_function,
    surface_form,
)
from surface_oracle import random_scheme


def _enhanced(text: str, values: dict) -> Enhancement:
    return Enhancement(surface_form(GluingScheme.from_text(text)), values)


def test_theory_normalization():
    assert TheoryClass(9).ab_power == 1
    assert TheoryClass(3).euler_weight == GaussianRational(1)
    with pytest.raises(ValueError):
        TheoryClass(1, 0)


def test_ab_power_is_an_integer_not_a_truncated_float():
    with pytest.raises(TypeError):
        TheoryClass(2.5)


def test_expected_ground_of_circles_and_intervals():
    assert expected_ground("bounding") == (1, "even")
    assert expected_ground("nonbounding") == (1, "odd")
    assert expected_ground(None) == (2, "mixed")


def test_point_value_counts_generators():
    for k in range(8):
        assert evaluate_point(TheoryClass(k)) == Signature.cl(k, 0)


def test_circle_values():
    bounding = classify_circle(ChainSetup.circle((1,)))
    nonbounding = classify_circle(ChainSetup.circle((0,)))
    assert (bounding, nonbounding) == ("bounding", "nonbounding")
    for k in range(8):
        t = TheoryClass(k)
        assert evaluate_circle(t, bounding) == "even"
        assert evaluate_circle(t, nonbounding) == (
            "odd" if k % 2 else "even"
        )


def test_torus_partition_value():
    q = _enhanced("a b a' b'", {"a": 2, "b": 2})
    value = partition_function(TheoryClass(1), [q])
    assert value.exponent == 4
    assert value.euler_factor == GaussianRational(1)


def test_sphere_partition_value_is_euler_weight_squared():
    q = _enhanced("a a'", {})
    value = partition_function(TheoryClass(0, 2), [q])
    assert value.exponent == 0
    assert value.euler_factor == GaussianRational(4)


def test_partition_function_is_multiplicative():
    t = TheoryClass(3, GaussianRational(0, 1))
    q1 = _enhanced("a a", {"a": 1})
    q2 = _enhanced("a b a' b'", {"a": 0, "b": 2})
    both = partition_function(t, [q1, q2])
    v1 = partition_function(t, [q1])
    v2 = partition_function(t, [q2])
    assert both.exponent == (v1.exponent + v2.exponent) % 8
    assert both.euler_factor == v1.euler_factor * v2.euler_factor
    assert both == v1 * v2


def test_partition_exponent_scales_with_ab_power():
    q = _enhanced("a a", {"a": 1})
    base = arf_brown(q)
    assert base == 1
    for k in range(8):
        value = partition_function(TheoryClass(k), [q])
        assert value.exponent == (k * base) % 8


def test_rp2_value_separates_the_eight_theories():
    q = _enhanced("a a", {"a": 1})
    seen = {
        partition_function(TheoryClass(k), [q]).exponent
        for k in range(8)
    }
    assert len(seen) == 8


def test_surface_form_for_multi_vertex_words():
    # a subdivided torus has no one-vertex form of its own; the normal
    # form's basis is used instead
    scheme = GluingScheme.from_text("a1 a2 b a2' a1' b'")
    form = surface_form(scheme)
    assert form.dim == 2
    assert form.rows == (0b10, 0b01)
    assert form == intersection_form(orientable_scheme(1))


@settings(max_examples=100, deadline=None, database=None)
@given(
    st.randoms(use_true_random=False),
    st.integers(0, 7),
    st.sampled_from([GaussianRational(2), GaussianRational(Fraction(-1, 3), 1)]),
)
def test_partition_function_on_random_words(rng, ab, weight):
    # chi = 2 - dim of each enhancement's form agrees with the classification
    schemes = [random_scheme(rng, rng.randint(1, 8)) for _ in range(rng.randint(1, 3))]
    qs = []
    for scheme in schemes:
        form = surface_form(scheme)
        values = {
            label: (form.rows[i] >> i & 1) + 2 * rng.randint(0, 1)
            for i, label in enumerate(form.basis_labels)
        }
        qs.append(Enhancement(form, values))
    t = TheoryClass(ab, weight)
    value = partition_function(t, qs)
    assert value == reduce(operator.mul, (partition_function(t, [q]) for q in qs))
    assert value.exponent == ab * sum(arf_brown(q) for q in qs) % 8
    assert value.euler_factor == weight ** sum(analyze(s).euler_char for s in schemes)


def test_stacking_multiplies_partition_values():
    q = _enhanced("a a b b", {"a": 1, "b": 3})
    a1, w1 = 2, GaussianRational(2)
    a2, w2 = 5, GaussianRational(0, 1)
    v1 = partition_function(TheoryClass(a1, w1), [q])
    v2 = partition_function(TheoryClass(a2, w2), [q])
    # the stacked theory: powers add mod 8, Euler weights multiply
    v = partition_function(TheoryClass(a1 + a2, w1 * w2), [q])
    assert v.exponent == (v1.exponent + v2.exponent) % 8
    assert v.euler_factor == v1.euler_factor * v2.euler_factor


def test_stability_is_unit_euler_weight():
    assert is_stable(TheoryClass(3))
    assert is_stable(TheoryClass(3, -1))
    assert not is_stable(TheoryClass(3, 2))
    assert not is_stable(TheoryClass(3, GaussianRational(0, 1)))


def test_consistency_report_passes():
    checks = consistency_report()
    assert all(c.passed for c in checks)
    assert [c.name for c in checks] == [
        "circle ground parity",
        "torus framing value",
        "spin exponents",
    ]
    assert all(c.detail for c in checks)


def test_spin_surface_exponents_match_arf():
    rng = random.Random(103)
    for _ in range(30):
        genus = rng.randint(1, 3)
        form = intersection_form(orientable_scheme(genus))
        values = {l: rng.choice((0, 2)) for l in form.basis_labels}
        q = Enhancement(form, values)
        exp = arf_brown(q)
        assert exp in (0, 4)
        assert exp == 4 * arf(q)
        value = partition_function(TheoryClass(1), [q])
        assert value.exponent == exp
