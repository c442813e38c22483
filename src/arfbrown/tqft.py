"""Evaluator for invertible theories on closed 0-, 1-, and 2-manifolds.

A theory, the named tuple `TheoryClass(ab_power, euler_weight)`, is a power
of the Arf-Brown generator (mod 8, by Morita periodicity of Clifford
algebras) and a nonzero Euler weight.  Each value is plain: a point gets
the Clifford algebra Cl(ab_power, 0) as its `Signature`, a circle gets the
parity of its super line, "even" or "odd", from its class "bounding" or
"nonbounding" (`pin1.classify_circle`), and closed surfaces get the
Arf-Brown root of unity raised to the theory's power times
euler_weight^chi, a `PartitionValue`.  A pin- surface is given by its
quadratic enhancement (Kirby-Taylor): the form's dimension is b1 = 2 - chi.
`consistency_report` returns its checks as a tuple of `CheckResult`s.
"""

from __future__ import annotations

import operator
import random
from fractions import Fraction
from typing import Iterable, NamedTuple

from .clifford import GaussianRational, Signature
from .pin1 import ChainSetup, classify_circle
from .quadform import Enhancement, arf, arf_brown
from .surface import orientable_scheme, surface_form  # tracer times tqft.surface_form

__all__ = [
    "TheoryClass",
    "PartitionValue",
    "CheckResult",
    "evaluate_point",
    "evaluate_circle",
    "expected_ground",
    "partition_function",
    "is_stable",
    "consistency_report",
]


class TheoryClass(
    NamedTuple("TheoryClass", [("ab_power", int), ("euler_weight", GaussianRational)])
):
    """A theory of the family: Arf-Brown power mod 8 and a nonzero Euler
    weight, checked by the constructor, not by `_make` or `_replace`."""

    __slots__ = ()

    def __new__(cls, ab_power: int, euler_weight: GaussianRational | Fraction | int = 1):
        weight = GaussianRational.coerce(euler_weight)
        if weight.is_zero():
            raise ValueError("the Euler weight must be nonzero")
        return super().__new__(cls, operator.index(ab_power) % 8, weight)


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


def evaluate_point(t: TheoryClass) -> Signature:
    """The point's superalgebra: ab_power generators, all squaring to +1."""
    return Signature.cl(t.ab_power)


def evaluate_circle(t: TheoryClass, c: str) -> str:
    """The parity of the line on a circle of class c: even on a "bounding"
    circle, and the parity of ab_power on a "nonbounding" one."""
    if c == "bounding":
        return "even"
    return "odd" if t.ab_power % 2 else "even"


# the generator of the family, whose circle lines the chain's ground lines are
_GENERATOR = TheoryClass(1)


def expected_ground(c: str | None) -> tuple[int, str]:
    """(dimension, parity) of a Majorana chain's ground space: 1 and the generator
    theory's line on a circle of class c, 2 and "mixed" on an interval (None)."""
    if c is None:
        return 2, "mixed"
    return 1, evaluate_circle(_GENERATOR, c)


def partition_function(
    t: TheoryClass, enhancements: Iterable[Enhancement]
) -> PartitionValue:
    """The product value over a disjoint union of closed pin- surfaces,
    each given by its enhancement."""
    total_exponent = 0
    total_chi = 0
    for q in enhancements:
        total_exponent += arf_brown(q)
        total_chi += 2 - q.dim
    return PartitionValue(
        exponent=t.ab_power * total_exponent % 8,
        euler_factor=t.euler_weight**total_chi,
    )


def is_stable(t: TheoryClass) -> bool:
    """Euler weight +1 or -1; other weights scale with the triangulation."""
    return t.euler_weight == 1 or t.euler_weight == -1


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _check_circle_parities(max_edges: int = 6) -> CheckResult:
    """Majorana ground parity must match the circle's line parity at power 1."""
    from .majorana import ground_states  # the chain runs only here

    tried = 0
    for n in range(1, max_edges + 1):
        for pattern in range(1 << n):
            bits = [(pattern >> i) & 1 for i in range(n)]
            setup = ChainSetup.circle(bits)
            dim, parity = expected_ground(classify_circle(setup))
            report = ground_states(setup)
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
    form = surface_form(orientable_scheme(1))
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
    forms = {genus: surface_form(orientable_scheme(genus)) for genus in (1, 2, 3)}
    for k in range(samples):
        form = forms[rng.randint(1, 3)]
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


def consistency_report() -> tuple[CheckResult, ...]:
    """Cross-module checks; failures are reported in the result, not raised."""
    return (_check_circle_parities(), _check_torus_value(), _check_spin_exponents())
