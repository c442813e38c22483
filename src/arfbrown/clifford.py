"""Clifford signatures, the supermodule (C^{1|1})^{(x) n} and Gaussian rationals.

A point's value is a `Signature`, Cl(p, q) held as its two counts: p
generators of square +1, then q of square -1.  The Majorana chain lives
on (C^{1|1})^{(x) n}, where generators 2v and 2v+1 are factor v's +1 and
-1 generator.  `evaluate_on_empty` applies a word of them to the empty
subset and holds the sign rule, as a normal ordering with two kernels: an
int bitmask for words below `SMALL_GENERATORS`, a stable sort above.
Every result of the chain and the irreducible supermodule of a signature with n positive and n
negative generators (`irreducible_supermodule`, odd `SuperMatrix` action
matrices) are built from it.  Entries and Euler weights are exact
`GaussianRational`s, which multiply, invert and take integer powers.
Nothing here needs numpy.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "GaussianRational",
    "Signature",
    "SuperMatrix",
    "irreducible_supermodule",
    "evaluate_on_empty",
    "UnpairedSignature",
]


class UnpairedSignature(ValueError):
    """irreducible_supermodule needs equally many +1 and -1 generators."""


class GaussianRational:
    """An element of Q(i), held as a reduced integer triple (a + b i) / d.

    The denominator d is positive and gcd(a, b, d) = 1, so equal values
    have equal triples and every operation is integer arithmetic with at
    most one gcd.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"parts must be int or Fraction, got {re!r}, {im!r}")
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)  # reduced parts give a reduced triple
        self._a, self._b, self._d = int(re * d), int(im * d), d

    @classmethod
    def coerce(cls, value: GaussianRational | Fraction | int) -> GaussianRational:
        z = _operand(value)
        if z is None:
            raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __mul__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        other = _operand(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> GaussianRational:
        """d / (a + b i) = (a d - b d i) / (a^2 + b^2)."""
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return _reduced(a * d, -b * d, n)

    def __pow__(self, n: int) -> GaussianRational:
        """(a + b i)^n / d^n: Gaussian-integer squaring, one gcd at the end."""
        z = self if n >= 0 else self.inverse()
        n = abs(n)
        a, b, x, y, d = 1, 0, z._a, z._b, z._d**n
        while n:
            if n & 1:
                a, b = a * x - b * y, a * y + b * x
            n >>= 1
            if n:
                x, y = x * x - y * y, 2 * x * y
        return _reduced(a, b, d)

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def __eq__(self, other: object) -> bool:
        other = _operand(other)
        if other is None:
            return NotImplemented
        return (self._a, self._b, self._d) == (other._a, other._b, other._d)

    def __hash__(self) -> int:
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        if not self._b:
            return f"GaussianRational({self.re})"
        return f"GaussianRational({self.re}, {self.im})"


def _operand(value: object) -> GaussianRational | None:
    """value as a Gaussian rational, or None if it is not in Q(i)."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return _reduced(value.numerator, 0, value.denominator)
    return None


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """(a + b i) / d for d > 0, divided by gcd(a, b, d)."""
    g = gcd(a, b, d)
    z = object.__new__(GaussianRational)
    z._a, z._b, z._d = a // g, b // g, d // g
    return z


class Signature:
    """Cl(p, q): p generators of square +1, then q of square -1, read-only."""

    __slots__ = ("_counts",)

    def __init__(self, positive: int, negative: int = 0):
        positive, negative = operator.index(positive), operator.index(negative)
        if positive < 0 or negative < 0:
            raise ValueError(f"Cl({positive}, {negative}) has a negative count")
        self._counts = (positive, negative)

    positive = property(lambda self: self._counts[0])
    negative = property(lambda self: self._counts[1])

    @classmethod
    def cl(cls, positive: int, negative: int = 0) -> Signature:
        """Signature(positive, negative), spelled as the algebra Cl(p, q)."""
        return cls(positive, negative)

    def __len__(self) -> int:
        return self.positive + self.negative

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Signature) and self._counts == other._counts

    def __hash__(self) -> int:
        return hash(self._counts)

    def __repr__(self) -> str:
        return f"Signature({self.positive}, {self.negative})"


# words whose generators all lie below this bound take the bitmask path
SMALL_GENERATORS = 256
_EVEN_BITS = int("01" * (SMALL_GENERATORS // 2), 2)  # bits 0, 2, 4, ...


def evaluate_on_empty(word: Sequence[int]) -> tuple[int, int]:
    """(sign, subset mask) of a word applied to the empty subset of
    (C^{1|1})^{(x) n}, with 2v and 2v+1 factor v's +1 and -1 generator.

    The word is brought into normal order, its generators increasing; then
    the factors act from the highest down, each on an even factor with only
    even factors before it, so no Koszul sign arises: a lone generator adds
    v, and the pair (+1)(-1) fixes the empty subset.  Two paths give the
    same normal order:

    - Small generators (all below SMALL_GENERATORS, as on every chain up
      to 128 vertices): the generators met so far are one int bitmask, and
      each next g passes the set bits above it, flipping the sign by their
      parity, then cancels against an equal g as its square, -1 for an odd
      g.  On the chain's short certificate words this is about three
      times as fast as sorting.  Each step shifts an int as wide as the
      largest generator, so on large ones the path would be quadratic.
    - Otherwise: distinct generators anticommute and equal ones never pass
      each other in a stable sort, so sorting the word costs the sign of
      the stable sorting permutation, (-1)^(length - cycles); then each
      pair of equal neighbours is its square.  This is O(k log k) in the
      length k, whatever the generators.
    """
    if max(word, default=0) >= SMALL_GENERATORS:
        return _evaluate_by_sorting(word)
    present = parity = 0
    for g in word:
        parity += (present >> g >> 1).bit_count() + (g & present >> g & 1)
        present ^= 1 << g
    # bit 2v of lone: exactly one of 2v and 2v+1 is left
    lone = (present ^ present >> 1) & _EVEN_BITS
    mask = 0
    while lone:
        low = lone & -lone
        mask |= 1 << (low.bit_length() >> 1)
        lone ^= low
    return -1 if parity & 1 else 1, mask


def _evaluate_by_sorting(word: Sequence[int]) -> tuple[int, int]:
    """`evaluate_on_empty` by a stable sort of the word."""
    order = sorted(range(len(word)), key=word.__getitem__)
    sign = -1 if len(word) & 1 else 1
    seen = bytearray(len(word))
    for start in range(len(word)):
        if not seen[start]:
            sign = -sign
            j = start
            while not seen[j]:
                seen[j] = 1
                j = order[j]
    key: list[int] = []
    for g in (word[i] for i in order):
        if key and key[-1] == g:
            key.pop()
            if g & 1:
                sign = -sign
        else:
            key.append(g)
    # the bits go into bytes, then one conversion: XOR into a growing int
    # would copy it once per generator
    bits = bytearray((key[-1] >> 4) + 1 if key else 0)
    for g in key:
        bits[g >> 4] ^= 1 << (g >> 1 & 7)
    return sign, int.from_bytes(bits, "little")


class SuperMatrix:
    """An odd matrix on a graded space C^{dim_even | dim_odd}.

    Basis order: the dim_even even vectors first, then the dim_odd odd
    ones.  An odd matrix has zero diagonal blocks; construction rejects an
    entry inside them.
    """

    __slots__ = ("_rows",)

    def __init__(
        self,
        dim_even: int,
        dim_odd: int,
        entries: Sequence[Sequence[GaussianRational | Fraction | int]],
    ):
        size = dim_even + dim_odd
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError(f"entries must be a {size}x{size} matrix")
        rows = tuple(tuple(map(GaussianRational.coerce, row)) for row in entries)
        for i, row in enumerate(rows):
            # an even row may not reach an even column, nor an odd row an odd one
            for j in range(dim_even) if i < dim_even else range(dim_even, size):
                if not row[j].is_zero():
                    raise ValueError(f"entry ({i},{j}) lies outside the odd blocks")
        self._rows = rows

    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return self._rows


def irreducible_supermodule(sig: Signature) -> list[SuperMatrix]:
    """Action matrices of Cl(S, o) on its 2^n-dimensional supermodule.

    Requires n generators of square +1 and n of square -1; the k-th
    positive and k-th negative generators (in signature order) act on the
    k-th C^{1|1} tensor factor as 2k and 2k+1 in `evaluate_on_empty`,
    extended over the graded tensor product by the Koszul sign rule.  The
    basis is the subsets of factors in odd states, sorted by (parity,
    mask).  Returns one matrix per generator, in signature order; all
    Clifford relations hold exactly.
    """
    if sig.positive != sig.negative:
        raise UnpairedSignature(
            f"{sig.positive} positive vs {sig.negative} negative generators"
        )
    n = sig.positive
    order = sorted(range(1 << n), key=lambda m: (m.bit_count() & 1, m))
    position = {m: i for i, m in enumerate(order)}
    # basis vector m is the +1 generators of m, in increasing order, on the
    # empty subset
    columns = [[2 * v for v in range(n) if m >> v & 1] for m in order]
    half = len(order) // 2
    # Gaussian rationals are immutable, so every entry is one of three
    zero, unit = GaussianRational(), {1: GaussianRational(1), -1: GaussianRational(-1)}
    out = []
    # the signature lists e1..en, then f1..fn: generators 2k, then 2k+1
    for g in [*range(0, 2 * n, 2), *range(1, 2 * n, 2)]:
        rows = [[zero] * len(order) for _ in order]
        for j, column in enumerate(columns):
            sign, mask = evaluate_on_empty([g, *column])
            rows[position[mask]][j] = unit[sign]
        out.append(SuperMatrix(half, half, rows))
    return out
