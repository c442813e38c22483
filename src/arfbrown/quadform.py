"""Quadratic enhancements of mod-2 intersection forms and their invariants.

A Z/4-valued quadratic enhancement q of an intersection form I satisfies
q(x + y) = q(x) + q(y) + 2 I(x, y).  Setting y = x forces q(x) = I(x, x)
mod 2 on every class.  The Arf-Brown invariant is the eighth root of unity
zeta8^k defined by the Gauss sum

    S = sum over H_1 of i^q(x) = zeta8^k * (zeta8 - zeta8^3)^dim,

where (zeta8 - zeta8^3)^2 = 2, so the right factor is a chosen square root
of 2^dim.  The exponent k is additive over orthogonal sums, and the form
splits into rank-1 and hyperbolic pieces whose exponents are read off from
q; ``arf_brown`` finds k, an int in 0..7, by elimination on Gram rows: a
rank-1 or hyperbolic pivot XORs its rows into the rows that pair with it,
at the cost of their popcount.  ``gauss_sum`` returns S in closed form as
its coefficients (c0, c1, c2, c3) in the cyclotomic integers Z[zeta8], a
tuple of ints; S always lies in Z[i], so c1 = c3 = 0.  No class of H_1 is
enumerated and no floating point is used.  Z/2-valued enhancements (spin
structures on orientable surfaces) are carried as even-valued Z/4
enhancements, value 2q.
"""

from __future__ import annotations

import operator
from typing import Mapping, NamedTuple

from .errors import CertificateError, DimensionMismatch, NotSpin, ParityViolation
from .f2 import symplectic_basis
from .surface import IntersectionForm

__all__ = [
    "Enhancement",
    "evaluate",
    "arf",
    "gauss_sum",
    "gauss_sum_of_root",
    "arf_brown",
    "NotRootOfUnity",
]


class NotRootOfUnity(CertificateError):
    """A Gauss sum failed to match zeta8^k * sqrt(2)^dim for every k."""


class Enhancement(
    NamedTuple("Enhancement", [("form", IntersectionForm), ("values", tuple)])
):
    """A Z/4 quadratic enhancement, stored by its values on the basis.

    It is built from a mapping of each basis label to an element of Z/4 with
    the parity of the form's diagonal entry; `values` holds them mod 4 in
    basis order, and a copy or a pickle rebuilds the mapping.  Only the
    constructor validates, not `_make` or `_replace`.
    """

    __slots__ = ()

    def __new__(cls, form: IntersectionForm, values: Mapping[str, int]):
        if set(values) != set(form.basis_labels):
            missing = set(form.basis_labels) - set(values)
            extra = set(values) - set(form.basis_labels)
            raise ValueError(
                f"values must cover the basis exactly; missing {sorted(missing)},"
                f" unexpected {sorted(extra)}"
            )
        normalized = []
        for i, label in enumerate(form.basis_labels):
            v = operator.index(values[label]) % 4
            self_pairing = form.rows[i] >> i & 1
            if v % 2 != self_pairing:
                raise ParityViolation(
                    f"q({label}) = {v} has the wrong parity; the self-pairing"
                    f" is {self_pairing} so q({label}) must be"
                    f" {self_pairing} mod 2"
                )
            normalized.append(v)
        return super().__new__(cls, form, tuple(normalized))

    def __getnewargs__(self) -> tuple[IntersectionForm, dict[str, int]]:
        return self.form, dict(zip(self.form.basis_labels, self.values))

    @property
    def dim(self) -> int:
        return self.form.dim

    def basis_value(self, label: str) -> int:
        return self.values[self.form.basis_labels.index(label)]

    def is_even_valued(self) -> bool:
        return all(v % 2 == 0 for v in self.values)


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
        total += q.values[i]
        total += 2 * (form.rows[i] & x & (low - 1)).bit_count()
        rest ^= low
    return total % 4


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

    Pieces split off one at a time, by elimination on the live basis
    variables: each keeps its Gram row in current coordinates and its q,
    and one mask holds those with odd diagonal.  A rank-1 pivot v (the
    lowest odd one) is worth +1 if q(v) = 1, -1 if q(v) = 3; each live
    neighbour w becomes w + v: row(w) ^= row(v), q(w) += q(v) + 2.  Then
    the lowest live e and the lowest bit f of row(e) are a hyperbolic
    pivot, worth 4 if q(e) = q(f) = 2, else 0; each live w becomes
    w + a e + b f (a = I(w, f), b = I(w, e)): row(e) goes into the rows
    that pair with f, row(f) into those that pair with e, and q(w) +=
    a q(e) + b q(f) + 2ab.  No other row changes, so a pivot costs the
    popcount of its rows.  An empty row(e) lies in the radical: the form
    is degenerate, and NotRootOfUnity is raised.
    """
    rows, values = list(q.form.rows), list(q.values)
    live = (1 << len(rows)) - 1
    odd = sum(r & 1 << i for i, r in enumerate(rows))
    k = 0
    while odd:
        v = (odd & -odd).bit_length() - 1
        rv, qv = rows[v], values[v]
        k += 2 - qv  # q(v) is 1 or 3
        live ^= 1 << v
        odd ^= rv  # v leaves, and each neighbour's diagonal flips
        rest = rv ^ 1 << v
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            rows[w] ^= rv
            values[w] = (values[w] + qv + 2) & 3
    while live:
        e = (live & -live).bit_length() - 1
        re = rows[e]
        if not re:
            raise NotRootOfUnity(
                "the form is degenerate, so its Gauss sum is not"
                f" zeta8^k * sqrt(2)^{q.dim} for any k"
            )
        f = (re & -re).bit_length() - 1
        rf, qe, qf = rows[f], values[e], values[f]
        k += 4 if qe == qf == 2 else 0
        live ^= 1 << e | 1 << f
        rest = (re | rf) ^ (1 << e | 1 << f)
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            a, b = rf & low > 0, re & low > 0
            rows[w] ^= (re if a else 0) ^ (rf if b else 0)
            values[w] = (values[w] + a * qe + b * qf + 2 * (a and b)) & 3
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
