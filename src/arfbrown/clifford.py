"""Clifford signatures, the supermodule (C^{1|1})^{(x) n} and Gaussian rationals.

A point's value is a `Signature`: generator labels with squares in
{+1, -1}, Cl(p, q) for `Signature.cl(p, q)`.  The Majorana chain lives on
(C^{1|1})^{(x) n}, where generators 2v and 2v+1 are factor v's +1 and -1
generator.  `evaluate_on_empty` applies a word of them to the empty subset
and holds the sign rule, written once; every result of the chain and the
irreducible supermodule of a signature with n positive and n negative
generators (`irreducible_supermodule`, odd `SuperMatrix` action matrices)
are built from it.  Values are exact `GaussianRational`s.  Nothing here
needs numpy.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping, Sequence

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

    def __add__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        other = _operand(other)
        if other is None:
            return NotImplemented
        d, e = self._d, other._d
        a, b = self._a * e + other._a * d, self._b * e + other._b * d
        return _reduced(a, b, d * e)

    __radd__ = __add__

    def __sub__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: Fraction | int) -> GaussianRational:
        return GaussianRational(other) - self

    def __neg__(self) -> GaussianRational:
        return _reduced(-self._a, -self._b, self._d)

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

    def __truediv__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        other = _operand(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Fraction | int) -> GaussianRational:
        return GaussianRational(other) * self.inverse()

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
    """An ordered list of generator labels with squares in {+1, -1}."""

    __slots__ = ("_labels", "_signs")

    def __init__(self, labels: Sequence[str], signs: Mapping[str, int]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValueError("generator labels must be distinct")
        if set(signs) != set(labels):
            raise ValueError("signs must be given for exactly the labels")
        for label in labels:
            if signs[label] not in (1, -1):
                raise ValueError(f"sign of {label!r} must be +1 or -1")
        self._labels = labels
        self._signs = {label: signs[label] for label in labels}

    @classmethod
    def cl(cls, positive: int, negative: int = 0) -> Signature:
        """The standard signature with the given counts of +1 and -1 squares."""
        labels = [f"e{k + 1}" for k in range(positive)]
        labels += [f"f{k + 1}" for k in range(negative)]
        signs = {lab: 1 for lab in labels[:positive]}
        signs.update({lab: -1 for lab in labels[positive:]})
        return cls(labels, signs)

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def sign(self, label: str) -> int:
        return self._signs[label]

    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self._labels if self._signs[l] == 1)

    def negative_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self._labels if self._signs[l] == -1)

    def __len__(self) -> int:
        return len(self._labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Signature)
            and self._labels == other._labels
            and self._signs == other._signs
        )

    def __hash__(self) -> int:
        return hash((self._labels, tuple(self._signs[l] for l in self._labels)))

    def __repr__(self) -> str:
        body = ", ".join(
            f"{l}{'+' if self._signs[l] == 1 else '-'}" for l in self._labels
        )
        return f"Signature({body})"


def evaluate_on_empty(word: Sequence[int]) -> tuple[int, int]:
    """(sign, subset mask) of a word applied to the empty subset of
    (C^{1|1})^{(x) n}, with 2v and 2v+1 factor v's +1 and -1 generator.

    Distinct generators anticommute and equal ones never pass each other in
    a stable sort, so sorting the word costs the sign of the stable sorting
    permutation, (-1)^(length - cycles); then each pair of equal neighbours
    is its square, +1 for an even generator and -1 for an odd one.  Sorted,
    the factors act from the highest down, each on an even factor with only
    even factors before it, so no Koszul sign arises: a lone generator adds
    v, and the pair (+1)(-1) fixes the empty subset.
    """
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
    mask = 0
    for g in key:
        mask ^= 1 << (g >> 1)
    return sign, mask


class SuperMatrix:
    """A homogeneous matrix on a graded space C^{dim_even | dim_odd}.

    Basis order: the dim_even even vectors first, then the dim_odd odd
    ones.  An even matrix has zero off-diagonal blocks; an odd matrix has
    zero diagonal blocks.  Construction rejects entries outside the blocks
    allowed by the declared parity.
    """

    __slots__ = ("_de", "_do", "_rows", "_parity")

    def __init__(
        self,
        dim_even: int,
        dim_odd: int,
        entries: Sequence[Sequence[GaussianRational | Fraction | int]],
        parity: str,
    ):
        if parity not in ("even", "odd"):
            raise ValueError("parity must be 'even' or 'odd'")
        size = dim_even + dim_odd
        if len(entries) != size or any(len(row) != size for row in entries):
            raise ValueError(f"entries must be a {size}x{size} matrix")
        rows = tuple(tuple(map(GaussianRational.coerce, row)) for row in entries)
        odd = parity == "odd"
        # the columns an even matrix forbids in an even row, then an odd row
        forbidden = (range(dim_even, size), range(dim_even))
        for i, row in enumerate(rows):
            for j in forbidden[(i < dim_even) == odd]:
                if not row[j].is_zero():
                    raise ValueError(
                        f"entry ({i},{j}) lies outside the {parity} blocks"
                    )
        self._de = dim_even
        self._do = dim_odd
        self._rows = rows
        self._parity = parity

    @property
    def dim_even(self) -> int:
        return self._de

    @property
    def dim_odd(self) -> int:
        return self._do

    @property
    def size(self) -> int:
        return self._de + self._do

    @property
    def parity(self) -> str:
        return self._parity

    def entry(self, i: int, j: int) -> GaussianRational:
        return self._rows[i][j]

    def rows(self) -> tuple[tuple[GaussianRational, ...], ...]:
        return self._rows

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SuperMatrix)
            and (self._de, self._do) == (other._de, other._do)
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self._de, self._do, self._rows))

    def __repr__(self) -> str:
        return (
            f"SuperMatrix(dim_even={self._de}, dim_odd={self._do},"
            f" parity={self._parity!r})"
        )


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
    positives = sig.positive_labels()
    negatives = sig.negative_labels()
    if len(positives) != len(negatives):
        raise UnpairedSignature(
            f"{len(positives)} positive vs {len(negatives)} negative generators"
        )
    n = len(positives)
    if n == 0:
        return []
    order = sorted(range(1 << n), key=lambda m: (m.bit_count() & 1, m))
    position = {m: i for i, m in enumerate(order)}
    # basis vector m is the +1 generators of m, in increasing order, on the
    # empty subset
    columns = [[2 * v for v in range(n) if m >> v & 1] for m in order]
    half = 1 << (n - 1)
    # Gaussian rationals are immutable, so every entry is one of three
    zero, unit = GaussianRational(), {1: GaussianRational(1), -1: GaussianRational(-1)}
    out = []
    for label in sig.labels:
        negative = sig.sign(label) == -1
        g = 2 * (negatives if negative else positives).index(label) + negative
        rows = [[zero] * len(order) for _ in order]
        for j, column in enumerate(columns):
            sign, mask = evaluate_on_empty([g, *column])
            rows[position[mask]][j] = unit[sign]
        out.append(SuperMatrix(half, half, rows, "odd"))
    return out
