"""Quadratic enhancements of mod-2 intersection forms and their invariants.

A Z/4-valued quadratic enhancement q of an intersection form I satisfies
q(x + y) = q(x) + q(y) + 2 I(x, y).  Setting y = x forces q(x) = I(x, x)
mod 2 on every class.  The Arf-Brown invariant is the eighth root of unity
zeta8^k defined by the Gauss sum

    S = sum over H_1 of i^q(x) = zeta8^k * (zeta8 - zeta8^3)^dim,

where (zeta8 - zeta8^3)^2 = 2, so the right factor is a chosen square root
of 2^dim.  The exponent k is additive over orthogonal sums, and the form
splits into rank-1 and hyperbolic pieces whose exponents are read off from
q; ``arf_brown`` finds k that way in O(dim^2) bitmask steps and returns
it as an int in 0..7.  ``gauss_sum`` returns S in closed form as its
coefficients (c0, c1, c2, c3) in the cyclotomic integers Z[zeta8], a tuple
of ints; S always lies in Z[i], so c1 = c3 = 0.  No class of H_1 is
enumerated and no floating point is used.  Z/2-valued
enhancements (spin structures on orientable surfaces) are carried as
even-valued Z/4 enhancements, value 2q.
"""

from __future__ import annotations

import operator
from itertools import product
from typing import Mapping

from .errors import CertificateError, DimensionMismatch, NotSpin, ParityViolation
from .f2 import symplectic_basis
from .surface import IntersectionForm

__all__ = [
    "Enhancement",
    "evaluate",
    "enumerate_enhancements",
    "arf",
    "gauss_sum",
    "gauss_sum_of_root",
    "arf_brown",
    "NotRootOfUnity",
]


class NotRootOfUnity(CertificateError):
    """A Gauss sum failed to match zeta8^k * sqrt(2)^dim for every k."""


class Enhancement:
    """A Z/4 quadratic enhancement, stored by its values on the basis.

    values maps each basis label of the form to an element of Z/4 whose
    parity matches the form's diagonal; evaluation extends to all of H_1 by
    the quadratic law and is independent of the expansion order.
    """

    __slots__ = ("_form", "_values")

    def __init__(self, form: IntersectionForm, values: Mapping[str, int]):
        if set(values) != set(form.basis_labels):
            missing = set(form.basis_labels) - set(values)
            extra = set(values) - set(form.basis_labels)
            raise ValueError(
                f"values must cover the basis exactly; missing {sorted(missing)},"
                f" unexpected {sorted(extra)}"
            )
        normalized: dict[str, int] = {}
        for i, label in enumerate(form.basis_labels):
            v = operator.index(values[label]) % 4
            self_pairing = form.rows[i] >> i & 1
            if v % 2 != self_pairing:
                raise ParityViolation(
                    f"q({label}) = {v} has the wrong parity; the self-pairing"
                    f" is {self_pairing} so q({label}) must be"
                    f" {self_pairing} mod 2"
                )
            normalized[label] = v
        self._form = form
        self._values = normalized

    @property
    def form(self) -> IntersectionForm:
        return self._form

    @property
    def values(self) -> dict[str, int]:
        return dict(self._values)

    @property
    def dim(self) -> int:
        return self._form.dim

    def basis_value(self, label: str) -> int:
        return self._values[label]

    def is_even_valued(self) -> bool:
        return all(v % 2 == 0 for v in self._values.values())

    def evaluate(self, x: int) -> int:
        return evaluate(self, x)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Enhancement)
            and self._form == other._form
            and self._values == other._values
        )

    def __hash__(self) -> int:
        return hash((self._form, tuple(sorted(self._values.items()))))

    def __repr__(self) -> str:
        vals = " ".join(f"{k}={v}" for k, v in self._values.items())
        return f"Enhancement({vals})"


def evaluate(q: Enhancement, x: int) -> int:
    """q(x) in Z/4 for the class whose support over the basis is the mask x.

    By the quadratic law, q(x) is the sum over the support of q(e_i) plus
    2 I(e_i, e_j) for each j < i in the support, the popcount of rows[i]
    masked by the bits of x below i.
    """
    form = q.form
    if x < 0 or x >> form.dim:
        raise DimensionMismatch(
            f"class mask {x} has a bit outside a form of dimension {form.dim}"
        )
    total = 0
    rest = x
    while rest:
        low = rest & -rest
        i = low.bit_length() - 1
        total += q.basis_value(form.basis_labels[i])
        total += 2 * (form.rows[i] & x & (low - 1)).bit_count()
        rest ^= low
    return total % 4


def enumerate_enhancements(form: IntersectionForm) -> list[Enhancement]:
    """All 2^dim enhancements of the form, in lexicographic value order.

    Each basis label admits exactly the two values with the parity forced by
    its self-pairing; the torsor over H^1 is enumerated as their product.
    """
    choices = []
    for i, row in enumerate(form.rows):
        base = row >> i & 1
        choices.append((base, base + 2))
    out = []
    for combo in product(*choices):
        out.append(
            Enhancement(form, dict(zip(form.basis_labels, combo)))
        )
    return out


def arf(q: Enhancement) -> int:
    """The Arf invariant in Z/2 of an even-valued enhancement.

    Requires an alternating form (orientable surface).  The Z/2 enhancement
    is q/2; the invariant is the sum of (q(e_i)/2)(q(f_i)/2) over a
    symplectic basis.
    """
    if not q.is_even_valued():
        raise NotSpin("enhancement takes odd values; no Z/2 refinement")
    pairs = symplectic_basis(q.form.rows)
    total = 0
    for e, f in pairs:
        total += (evaluate(q, e) // 2) * (evaluate(q, f) // 2)
    return total % 2


def arf_brown(q: Enhancement) -> int:
    """The Arf-Brown exponent: the unique k in 0..7 with S = zeta8^k sqrt(2)^dim.

    The Brown invariant adds over orthogonal sums, so pieces are split off
    the form one at a time.  A class x with I(x, x) = 1 spans a rank-1 piece
    worth +1 if q(x) = 1 and -1 if q(x) = 3.  Otherwise every class pairs
    evenly with itself, and the first one, e, with a partner f such that
    I(e, f) = 1 spans a hyperbolic piece worth 4 if q(e) = q(f) = 2 and 0 if
    not.  The remaining classes are then moved into the piece's orthogonal
    complement, with q carried along by the quadratic law.  A class is held
    as (bitmask, its row image under the Gram matrix, q), so each pairing is
    one AND and a popcount: O(dim^2) big-integer steps in all.  A degenerate
    form raises NotRootOfUnity.
    """
    form = q.form
    classes = [
        (1 << i, form.rows[i], q.basis_value(label))
        for i, label in enumerate(form.basis_labels)
    ]
    k = 0
    while classes:
        odd = next(
            (i for i, (v, r, _) in enumerate(classes) if (v & r).bit_count() & 1),
            None,
        )
        if odd is not None:
            x, rx, qx = classes.pop(odd)
            k += 1 if qx == 1 else -1
            classes = [
                (v ^ x, r ^ rx, (qv + qx + 2) % 4) if (r & x).bit_count() & 1
                else (v, r, qv)
                for v, r, qv in classes
            ]
            continue
        e, re, qe = classes.pop(0)
        partner = next(
            (i for i, (v, _, _) in enumerate(classes) if (re & v).bit_count() & 1),
            None,
        )
        if partner is None:
            raise NotRootOfUnity(
                "the form is degenerate, so its Gauss sum is not"
                f" zeta8^k * sqrt(2)^{q.dim} for any k"
            )
        f, rf, qf = classes.pop(partner)
        k += 4 if qe == qf == 2 else 0
        rest = []
        for v, r, qv in classes:
            if (r & f).bit_count() & 1:
                qv = (qv + qe + 2 * ((r & e).bit_count() & 1)) % 4
                v, r = v ^ e, r ^ re
            if (r & e).bit_count() & 1:
                # v pairs evenly with f by now, so the cross term vanishes
                qv = (qv + qf) % 4
                v, r = v ^ f, r ^ rf
            rest.append((v, r, qv))
        classes = rest
    return k % 8


def _zeta(j: int, scale: int) -> tuple[int, int, int, int]:
    """scale * zeta8^j as coefficients: zeta8^j is +-e_(j mod 4), with the
    minus sign when j mod 8 >= 4, since zeta8^4 = -1."""
    out = [0, 0, 0, 0]
    out[j % 4] = scale if j % 8 < 4 else -scale
    return tuple(out)


def gauss_sum_of_root(k: int, dim: int) -> tuple[int, int, int, int]:
    """zeta8^k * (zeta8 - zeta8^3)^dim, the Gauss sum of a form with exponent
    k, as the coefficients (c0, c1, c2, c3) of c0 + c1 zeta8 + c2 zeta8^2 +
    c3 zeta8^3.  (zeta8 - zeta8^3)^2 = 2, so an even dim gives zeta8^k *
    2^(dim // 2), and an odd one multiplies that by zeta8 - zeta8^3."""
    scale = 1 << (dim >> 1)
    if not dim & 1:
        return _zeta(k, scale)
    plus, minus = _zeta(k + 1, scale), _zeta(k + 3, scale)
    return tuple(a - b for a, b in zip(plus, minus))


def gauss_sum(q: Enhancement) -> tuple[int, int, int, int]:
    """S = sum of i^q(x) over all of H_1, as its Z[zeta8] coefficients.

    The sum is zeta8^k * sqrt(2)^dim for the Arf-Brown exponent k, so it is
    built from k in closed form; no class is enumerated.  Every term is a
    power of i, so S lies in Z[i]: c1 = c3 = 0.
    """
    return gauss_sum_of_root(arf_brown(q), q.dim)
