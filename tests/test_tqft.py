"""Theory values on points, circles, and enhanced closed surfaces."""

import random
from fractions import Fraction

import pytest

from arfbrown.clifford import GaussianRational
from arfbrown.pin1 import Circle, CircleClass, classify_circle
from arfbrown.quadform import DimensionMismatch, Enhancement, arf, arf_brown
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
    stack,
    surface_form,
)


def _enhanced(text: str, values: dict):
    scheme = GluingScheme.from_text(text)
    return scheme, Enhancement(surface_form(scheme), values)


def test_theory_normalization():
    assert TheoryClass(9).ab_power == 1
    assert TheoryClass(3).euler_weight == GaussianRational(1)
    with pytest.raises(ValueError):
        TheoryClass(1, 0)


def test_ab_power_is_an_integer_not_a_truncated_float():
    with pytest.raises(TypeError):
        TheoryClass(2.5)


def test_expected_ground_of_circles_and_intervals():
    assert expected_ground(CircleClass.BOUNDING) == (1, "even")
    assert expected_ground(CircleClass.NONBOUNDING) == (1, "odd")
    assert expected_ground(None) == (2, "mixed")


def test_point_value_counts_generators():
    for k in range(8):
        sig = evaluate_point(TheoryClass(k)).signature
        assert len(sig.labels) == k
        assert all(sig.sign(l) == 1 for l in sig.labels)


def test_circle_values():
    bounding = classify_circle(Circle((1,)))
    nonbounding = classify_circle(Circle((0,)))
    assert bounding is CircleClass.BOUNDING
    for k in range(8):
        t = TheoryClass(k)
        assert evaluate_circle(t, bounding).parity == "even"
        assert evaluate_circle(t, nonbounding).parity == (
            "odd" if k % 2 else "even"
        )


def test_torus_partition_value():
    pair = _enhanced("a b a' b'", {"a": 2, "b": 2})
    value = partition_function(TheoryClass(1), [pair])
    assert value.exponent == 4
    assert value.euler_factor == GaussianRational(1)


def test_sphere_partition_value_is_euler_weight_squared():
    pair = _enhanced("a a'", {})
    value = partition_function(TheoryClass(0, 2), [pair])
    assert value.exponent == 0
    assert value.euler_factor == GaussianRational(4)


def test_partition_function_is_multiplicative():
    t = TheoryClass(3, GaussianRational(0, 1))
    p1 = _enhanced("a a", {"a": 1})
    p2 = _enhanced("a b a' b'", {"a": 0, "b": 2})
    both = partition_function(t, [p1, p2])
    v1 = partition_function(t, [p1])
    v2 = partition_function(t, [p2])
    assert both.exponent == (v1.exponent + v2.exponent) % 8
    assert both.euler_factor == v1.euler_factor * v2.euler_factor
    assert both == v1 * v2


def test_partition_exponent_scales_with_ab_power():
    pair = _enhanced("a a", {"a": 1})
    base = arf_brown(pair[1])
    assert base == 1
    for k in range(8):
        value = partition_function(TheoryClass(k), [pair])
        assert value.exponent == (k * base) % 8


def test_rp2_value_separates_the_eight_theories():
    pair = _enhanced("a a", {"a": 1})
    seen = {
        partition_function(TheoryClass(k), [pair]).exponent
        for k in range(8)
    }
    assert len(seen) == 8


def test_enhancement_on_wrong_form_rejected():
    torus = GluingScheme.from_text("a b a' b'")
    rp2_form = surface_form(GluingScheme.from_text("a a"))
    q = Enhancement(rp2_form, {"a": 1})
    with pytest.raises(DimensionMismatch):
        partition_function(TheoryClass(1), [(torus, q)])


def test_kept_form_still_rejects_a_mismatched_enhancement():
    torus = GluingScheme.from_text("a1 a2 b a2' a1' b'")
    form = surface_form(torus)
    assert surface_form(torus) is form
    q = Enhancement(surface_form(GluingScheme.from_text("a a b b")), {"a": 1, "b": 1})
    with pytest.raises(DimensionMismatch):
        partition_function(TheoryClass(1), [(torus, q)])
    partition_function(TheoryClass(1), [(torus, Enhancement(form, {"a": 2, "b": 0}))])


def test_surface_form_for_multi_vertex_words():
    # a subdivided torus has no one-vertex form of its own; the normal
    # form's basis is used instead
    scheme = GluingScheme.from_text("a1 a2 b a2' a1' b'")
    form = surface_form(scheme)
    assert form.dim == 2
    assert form.rows == (0b10, 0b01)
    assert form == intersection_form(orientable_scheme(1))


def test_stack_laws():
    rng = random.Random(101)
    weights = [
        GaussianRational(1),
        GaussianRational(-1),
        GaussianRational(2),
        GaussianRational(0, 1),
        GaussianRational(Fraction(1, 2), Fraction(3, 4)),
    ]
    identity = TheoryClass(0, 1)
    for _ in range(100):
        t1 = TheoryClass(rng.randrange(8), rng.choice(weights))
        t2 = TheoryClass(rng.randrange(8), rng.choice(weights))
        t3 = TheoryClass(rng.randrange(8), rng.choice(weights))
        assert stack(t1, t2) == stack(t2, t1)
        assert stack(stack(t1, t2), t3) == stack(t1, stack(t2, t3))
        assert stack(t1, identity) == t1
        s = stack(t1, t2)
        assert s.ab_power == (t1.ab_power + t2.ab_power) % 8
        assert s.euler_weight == t1.euler_weight * t2.euler_weight


def test_stacking_multiplies_partition_values():
    pair = _enhanced("a a b b", {"a": 1, "b": 3})
    t1 = TheoryClass(2, GaussianRational(2))
    t2 = TheoryClass(5, GaussianRational(0, 1))
    v1 = partition_function(t1, [pair])
    v2 = partition_function(t2, [pair])
    v = partition_function(stack(t1, t2), [pair])
    assert v.exponent == (v1.exponent + v2.exponent) % 8
    assert v.euler_factor == v1.euler_factor * v2.euler_factor


def test_stability_is_unit_euler_weight():
    assert is_stable(TheoryClass(3))
    assert is_stable(TheoryClass(3, -1))
    assert not is_stable(TheoryClass(3, 2))
    assert not is_stable(TheoryClass(3, GaussianRational(0, 1)))


def test_consistency_report_passes():
    report = consistency_report()
    assert report.all_passed
    assert [c.name for c in report.checks] == [
        "circle ground parity",
        "torus framing value",
        "spin exponents",
    ]
    assert all(c.detail for c in report.checks)


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
        value = partition_function(TheoryClass(1), [(orientable_scheme(genus), q)])
        assert value.exponent == exp
