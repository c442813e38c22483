"""Acceptance suite: one test per release criterion, exact arithmetic only.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Each test also enforces its runtime budget.
"""

import random
import time
from fractions import Fraction
from itertools import product

from arfbrown.clifford import Signature, irreducible_supermodule
from arfbrown.majorana import (
    epsilon_operator,
    ground_states,
    interval_bimodule_check,
    majorana_operators,
    reference_module,
)
from arfbrown.pin1 import ChainSetup
from arfbrown.quadform import (
    Enhancement,
    arf,
    arf_brown,
    gauss_sum,
)
from arfbrown.surface import (
    GluingScheme,
    analyze,
    intersection_form,
    nonorientable_scheme,
    normalize,
    orientable_scheme,
)
from arfbrown.tqft import consistency_report
from clifford_checks import assert_clifford_relations, int_matrix
from f2_oracle import rank
from gauss_oracle import block_sum, enumerate_enhancements
from surface_oracle import random_scheme


class _Budget:
    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, (
            f"criterion exceeded its {self.limit:.0f}s budget: {elapsed:.1f}s"
        )


def _rp2_enhancements():
    form = intersection_form(GluingScheme.from_text("a a"))
    return form, Enhancement(form, {"a": 1}), Enhancement(form, {"a": 3})


def test_criterion_01_projective_plane_invariants():
    budget = _Budget(1)
    _, q1, q3 = _rp2_enhancements()
    assert arf_brown(q1) == 1
    assert arf_brown(q3) == 7
    budget.check()


def test_criterion_02_torus_framing_arf_and_exponent():
    budget = _Budget(1)
    form = intersection_form(GluingScheme.from_text("a b a' b'"))
    q = Enhancement(form, {"a": 2, "b": 2})
    assert arf(q) == 1
    assert arf_brown(q) == 4
    budget.check()


def test_criterion_03_gauss_sum_modulus_exhaustive():
    budget = _Budget(120)
    surfaces = [orientable_scheme(g) for g in range(5)]
    surfaces += [nonorientable_scheme(k) for k in range(1, 9)]
    checked = 0
    for scheme in surfaces:
        form = intersection_form(scheme)
        b1 = form.dim
        assert b1 <= 8
        enhancements = enumerate_enhancements(form)
        assert len(enhancements) == 2**b1
        for q in enhancements:
            c0, c1, c2, c3 = gauss_sum(q)
            assert c1 == c3 == 0
            assert c0 * c0 + c2 * c2 == 2**b1
            checked += 1
    assert checked == sum(2**f for f in [0, 2, 4, 6, 8, 1, 2, 3, 4, 5, 6, 7, 8])
    budget.check()


def test_criterion_04_exponents_add_mod_8():
    budget = _Budget(1)
    form, q1, _ = _rp2_enhancements()
    torus = intersection_form(GluingScheme.from_text("a b a' b'"))
    qt = Enhancement(torus, {"a": 2, "b": 2})
    rng = random.Random(107)
    pool = [q1, qt] + enumerate_enhancements(
        intersection_form(GluingScheme.from_text("a a b b"))
    )
    for _ in range(15):
        pieces = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        joint = arf_brown(block_sum(pieces))
        assert joint == sum(arf_brown(q) for q in pieces) % 8
    eight = block_sum([q1] * 8)
    assert arf_brown(eight) == 0
    budget.check()


def test_criterion_05_spin_exponents_reduce_to_arf():
    budget = _Budget(30)
    rng = random.Random(109)
    for _ in range(200):
        genus = rng.randint(1, 3)
        form = intersection_form(orientable_scheme(genus))
        q = Enhancement(
            form, {label: rng.choice((0, 2)) for label in form.basis_labels}
        )
        exponent = arf_brown(q)
        assert exponent in (0, 4)
        assert exponent == 4 * arf(q)
    budget.check()


def test_criterion_06_circle_ground_states_exhaustive():
    budget = _Budget(300)
    for n in range(1, 6):
        for bits in product((0, 1), repeat=n):
            for orientation in (1, -1):
                report = ground_states(ChainSetup.circle(bits, orientation))
                m = sum(bits)
                assert report.ground_dimension == 1
                assert report.ground_parity == ("even" if m % 2 else "odd")
                if m == 0:
                    assert report.min_eigenvalue == Fraction(-n, 2)
    budget.check()


def test_criterion_07_interval_ground_modules_exhaustive():
    budget = _Budget(120)
    for edges in range(1, 5):
        for bits in product((0, 1), repeat=edges):
            for orientation in (1, -1):
                report = interval_bimodule_check(
                    ChainSetup.interval(bits, orientation)
                )
                assert report.ground_dimension == 2
                assert report.boundary_commutes
                assert report.plus_squares_to_identity
                assert report.minus_squares_to_minus_identity
                assert report.generators_anticommute
                assert report.commutant_dimension == 1
                assert report.irreducible
                assert report.passed
    budget.check()


def test_criterion_08_epsilon_eigenvalue_profiles():
    budget = _Budget(60)
    for n in range(1, 6):
        for bits in product((0, 1), repeat=n):
            setup = ChainSetup.circle(bits)
            eps = epsilon_operator(setup)
            for mask in range(1 << n):
                k = bin(mask).count("1")
                assert eps[mask, mask] == (-1) ** (n - k)
            ref = reference_module(setup)
            for mask in range(1 << n):
                k = bin(mask).count("1")
                assert ref.epsilon[mask, mask] == (-1) ** (k - 1)
    budget.check()


def test_criterion_09_clifford_relation_suite():
    budget = _Budget(120)
    rng = random.Random(113)
    for n in range(1, 6):
        ops = majorana_operators(ChainSetup.circle((0,) * n))
        mats = [ops[v][0] for v in range(n)] + [ops[v][1] for v in range(n)]
        assert_clifford_relations(mats, [1] * n + [-1] * n)

        module = irreducible_supermodule(Signature.cl(n, n))
        assert_clifford_relations([int_matrix(m) for m in module], [1] * n + [-1] * n)

        bits = tuple(rng.randint(0, 1) for _ in range(n))
        ref = reference_module(ChainSetup.circle(bits, rng.choice((1, -1))))
        mats = [ref.c[v] for v in range(n)] + [ref.d[v] for v in range(n)]
        assert_clifford_relations(mats, [1] * n + [-1] * n)
    budget.check()


def test_criterion_10_cross_module_consistency():
    budget = _Budget(60)
    checks = consistency_report()
    for check in checks:
        assert check.passed, f"{check.name}: {check.detail}"
    assert all(c.passed for c in checks)
    budget.check()


def test_criterion_11_surface_classification_random_words():
    budget = _Budget(60)
    rng = random.Random(127)
    for _ in range(500):
        scheme = random_scheme(rng, rng.randint(1, 6))
        assert len(scheme) <= 12
        info = analyze(scheme)
        normal = normalize(scheme)
        ninfo = analyze(normal)
        assert ninfo.euler_char == info.euler_char
        assert ninfo.orientable == info.orientable
        form = intersection_form(normal)
        assert form.dim == 2 - info.euler_char
        rows = form.rows
        assert len(rows) == form.dim and all(0 <= r < 1 << form.dim for r in rows)
        assert all(
            rows[i] >> j & 1 == rows[j] >> i & 1
            for i in range(form.dim)
            for j in range(i)
        )
        assert rank(rows) == form.dim
    budget.check()


def test_criterion_12_orientation_reversal_invariance():
    budget = _Budget(60)
    mismatches = []
    for n in range(1, 9):
        for kind in ("circle", "interval"):
            edges = n if kind == "circle" else max(1, n - 1)
            for bits in product((0, 1), repeat=edges):
                make = (
                    ChainSetup.circle if kind == "circle" else ChainSetup.interval
                )
                forward = ground_states(make(bits, 1))
                backward = ground_states(make(bits, -1))
                if (
                    forward.spectrum() != backward.spectrum()
                    or forward.ground_parity != backward.ground_parity
                ):
                    mismatches.append((kind, bits))
    assert not mismatches, (
        "orientation reversal changed a spectrum or parity for: "
        + ", ".join(f"{k} {b}" for k, b in mismatches[:5])
    )
    budget.check()
