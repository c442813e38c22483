"""Gaussian rationals as a pair of Fractions: the oracle for the integer
triples of ``arfbrown.clifford.GaussianRational``.

Each product costs four Fraction multiplications, each with its own gcd,
so the package stores (a + b i) / d on integers instead; this class keeps
the plain field arithmetic to compare against.  Its ``repr`` prints the
package class's name, so the two texts compare directly.
"""

from __future__ import annotations

from fractions import Fraction


class PairGaussian:
    """An element of Q(i), held as an exact (real, imaginary) Fraction pair."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        self._re = Fraction(re)
        self._im = Fraction(im)

    @classmethod
    def zero(cls) -> PairGaussian:
        return cls()

    @classmethod
    def one(cls) -> PairGaussian:
        return cls(1)

    @classmethod
    def i(cls) -> PairGaussian:
        return cls(0, 1)

    @classmethod
    def coerce(cls, value: PairGaussian | Fraction | int) -> PairGaussian:
        if isinstance(value, PairGaussian):
            return value
        if isinstance(value, (Fraction, int)):
            return cls(value)
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")

    @property
    def re(self) -> Fraction:
        return self._re

    @property
    def im(self) -> Fraction:
        return self._im

    def __add__(self, other: PairGaussian | Fraction | int) -> PairGaussian:
        if isinstance(other, (Fraction, int)):
            other = PairGaussian(other)
        if not isinstance(other, PairGaussian):
            return NotImplemented
        return PairGaussian(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __sub__(self, other: PairGaussian | Fraction | int) -> PairGaussian:
        if isinstance(other, (Fraction, int)):
            other = PairGaussian(other)
        if not isinstance(other, PairGaussian):
            return NotImplemented
        return PairGaussian(self._re - other._re, self._im - other._im)

    def __rsub__(self, other: Fraction | int) -> PairGaussian:
        return PairGaussian(other) - self

    def __neg__(self) -> PairGaussian:
        return PairGaussian(-self._re, -self._im)

    def __mul__(self, other: PairGaussian | Fraction | int) -> PairGaussian:
        if isinstance(other, (Fraction, int)):
            return PairGaussian(self._re * other, self._im * other)
        if not isinstance(other, PairGaussian):
            return NotImplemented
        return PairGaussian(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> PairGaussian:
        return PairGaussian(self._re, -self._im)

    def norm(self) -> Fraction:
        """|z|^2 = z * conj(z), a nonnegative rational."""
        return self._re * self._re + self._im * self._im

    def inverse(self) -> PairGaussian:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return PairGaussian(self._re / n, -self._im / n)

    def __truediv__(self, other: PairGaussian | Fraction | int) -> PairGaussian:
        if isinstance(other, (Fraction, int)):
            other = PairGaussian(other)
        if not isinstance(other, PairGaussian):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Fraction | int) -> PairGaussian:
        return PairGaussian(other) * self.inverse()

    def __pow__(self, n: int) -> PairGaussian:
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = PairGaussian.one()
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_zero(self) -> bool:
        return self._re == 0 and self._im == 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (Fraction, int)):
            other = PairGaussian(other)
        if not isinstance(other, PairGaussian):
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self) -> int:
        if self._im == 0:
            return hash(self._re)
        return hash((self._re, self._im))

    def __repr__(self) -> str:
        if self._im == 0:
            return f"GaussianRational({self._re})"
        return f"GaussianRational({self._re}, {self._im})"
