"""Evaluator for invertible theories on closed 0-, 1-, and 2-manifolds.

A theory is an integer power of the Arf-Brown generator (mod 8, by Morita
periodicity of Clifford algebras) together with a nonzero Euler weight.
Points receive Clifford algebras, circles receive super lines, and closed
surfaces receive the Arf-Brown root of unity raised to the theory's power
times euler_weight^chi; each surface's enhancement lives on its
``surface.surface_form``.  Stacking multiplies theories componentwise:
powers add mod 8, weights multiply.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .clifford import GaussianRational, Signature
from .errors import DimensionMismatch
from .pin1 import Circle, CircleClass, classify_circle
from .quadform import Enhancement, arf, arf_brown
from .surface import (
    GluingScheme,
    intersection_form,
    orientable_scheme,
    surface_form,
)

__all__ = [
    "TheoryClass",
    "SuperalgebraValue",
    "SuperLineValue",
    "PartitionValue",
    "CheckResult",
    "ConsistencyReport",
    "evaluate_point",
    "evaluate_circle",
    "expected_ground",
    "partition_function",
    "stack",
    "is_stable",
    "consistency_report",
]


class TheoryClass:
    """A stackable theory: Arf-Brown power mod 8 and a nonzero Euler weight."""

    __slots__ = ("_ab_power", "_euler_weight")

    def __init__(
        self,
        ab_power: int,
        euler_weight: GaussianRational | Fraction | int = 1,
    ):
        weight = GaussianRational.coerce(euler_weight)
        if weight.is_zero():
            raise ValueError("the Euler weight must be nonzero")
        self._ab_power = operator.index(ab_power) % 8
        self._euler_weight = weight

    @property
    def ab_power(self) -> int:
        return self._ab_power

    @property
    def euler_weight(self) -> GaussianRational:
        return self._euler_weight

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TheoryClass)
            and self._ab_power == other._ab_power
            and self._euler_weight == other._euler_weight
        )

    def __hash__(self) -> int:
        return hash((self._ab_power, self._euler_weight))

    def __repr__(self) -> str:
        return f"TheoryClass(ab_power={self._ab_power}, euler_weight={self._euler_weight!r})"


class SuperalgebraValue(NamedTuple):
    """The value on a point: a Clifford algebra, named by its signature."""

    signature: Signature


class SuperLineValue(NamedTuple):
    """The value on a circle: a line of definite parity."""

    parity: str


class PartitionValue(NamedTuple):
    """The value on closed surfaces: zeta8^exponent, with exponent an int
    in 0..7, times the Euler weight raised to the total Euler
    characteristic."""

    exponent: int
    euler_factor: GaussianRational

    def __mul__(self, other: PartitionValue) -> PartitionValue:
        """The value on the disjoint union: exponents add mod 8 and Euler
        factors multiply."""
        return PartitionValue(
            (self.exponent + other.exponent) % 8,
            self.euler_factor * other.euler_factor,
        )


def evaluate_point(t: TheoryClass) -> SuperalgebraValue:
    """The point's superalgebra: ab_power generators, all squaring to +1."""
    return SuperalgebraValue(Signature.cl(t.ab_power))


def evaluate_circle(t: TheoryClass, c: CircleClass) -> SuperLineValue:
    """Bounding circles get an even line; nonbounding ones a line whose
    parity is the parity of ab_power."""
    if c is CircleClass.BOUNDING:
        return SuperLineValue("even")
    return SuperLineValue("odd" if t.ab_power % 2 else "even")


def expected_ground(c: CircleClass | None) -> tuple[int, str]:
    """(dimension, parity) of a Majorana chain's ground space: 1 and the generator
    theory's line on a circle of class c, 2 and "mixed" on an interval (None)."""
    if c is None:
        return 2, "mixed"
    return 1, evaluate_circle(TheoryClass(1), c).parity


def partition_function(
    t: TheoryClass,
    surfaces: Iterable[tuple[GluingScheme, Enhancement]],
) -> PartitionValue:
    """The product value over a disjoint union of enhanced closed surfaces."""
    total_exponent = 0
    total_chi = 0
    for scheme, q in surfaces:
        expected = surface_form(scheme)
        if q.form != expected:
            raise DimensionMismatch(
                "enhancement is defined on a different intersection form"
                f" than the scheme {scheme.text()!r} carries"
            )
        total_exponent += arf_brown(q)
        total_chi += 2 - expected.dim  # the form's dimension is b1 = 2 - chi
    return PartitionValue(
        exponent=t.ab_power * total_exponent % 8,
        euler_factor=t.euler_weight**total_chi,
    )


def stack(t1: TheoryClass, t2: TheoryClass) -> TheoryClass:
    """Componentwise product: powers add mod 8, Euler weights multiply."""
    return TheoryClass(
        t1.ab_power + t2.ab_power, t1.euler_weight * t2.euler_weight
    )


def is_stable(t: TheoryClass) -> bool:
    """Euler weight +1 or -1; other weights scale with the triangulation."""
    return t.euler_weight == 1 or t.euler_weight == -1


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


class ConsistencyReport(NamedTuple):
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_circle_parities(max_edges: int = 6) -> CheckResult:
    """Majorana ground parity must match the circle's line parity at power 1."""
    from .majorana import ChainSetup, ground_states  # the chain runs only here

    tried = 0
    for n in range(1, max_edges + 1):
        for pattern in range(1 << n):
            bits = [(pattern >> i) & 1 for i in range(n)]
            dim, parity = expected_ground(classify_circle(Circle(bits)))
            report = ground_states(ChainSetup.circle(bits))
            tried += 1
            if report.ground_dimension != dim:
                detail = f"ground dimension {report.ground_dimension}"
            elif report.ground_parity != parity:
                detail = f"chain gives {report.ground_parity}, theory gives {parity}"
            else:
                continue
            return CheckResult("circle ground parity", False, f"bits {bits}: {detail}")
    return CheckResult("circle ground parity", True, f"{tried} circle structures agree")


def _check_torus_value() -> CheckResult:
    """The torus with both basis values 1 in Z/2 must evaluate to -1."""
    form = intersection_form(orientable_scheme(1))
    a, b = form.basis_labels
    q = Enhancement(form, {a: 2, b: 2})
    exponent = arf_brown(q)
    return CheckResult(
        "torus framing value",
        exponent == 4,
        f"exponent {exponent} (want 4, the value -1)",
    )


def _check_spin_exponents(samples: int = 50) -> CheckResult:
    """Even-valued enhancements must land in {0, 4} and match 4*Arf."""
    rng = random.Random(20260815)
    for k in range(samples):
        form = intersection_form(orientable_scheme(rng.randint(1, 3)))
        values = {label: rng.choice((0, 2)) for label in form.basis_labels}
        q = Enhancement(form, values)
        exponent = arf_brown(q)
        if exponent not in (0, 4) or exponent != 4 * arf(q):
            return CheckResult(
                "spin exponents",
                False,
                f"sample {k}: exponent {exponent}, arf {arf(q)}",
            )
    return CheckResult(
        "spin exponents", True, f"{samples} even enhancements in {{0, 4}}"
    )


def consistency_report() -> ConsistencyReport:
    """Cross-module checks; failures are reported in the result, not raised."""
    return ConsistencyReport(
        checks=(
            _check_circle_parities(),
            _check_torus_value(),
            _check_spin_exponents(),
        )
    )
