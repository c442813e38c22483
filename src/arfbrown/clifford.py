"""Exact graded Clifford algebras over the Gaussian rationals.

Cl(S, o) is the algebra on generators S with s^2 = o(s) in {+1, -1} and
st = -ts for distinct s, t.  Elements are stored on the subset basis in a
canonical sorted order, so equality is coefficient comparison.  One word
product (`_word_product`) holds the sign rule: the sign of the stable
sorting permutation times the squares of equal neighbours.  It multiplies
elements, and through `evaluate_on_empty` it gives the action of a word of
C^{1|1} generator pairs on (C^{1|1})^{(x) n}, which builds the irreducible
supermodule of a signature with n positive and n negative generators and
every result of the Majorana chain.  The module also provides graded tensor
products, the grading operator and 2x2 supermatrix representations of the
(+1, -1) generator pair on C^{1|1}.  Nothing here needs numpy.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence

__all__ = [
    "GaussianRational",
    "Signature",
    "CliffordElement",
    "SuperMatrix",
    "multiply",
    "graded_tensor",
    "grading_operator_action",
    "cl11_rep",
    "irreducible_supermodule",
    "evaluate_on_empty",
    "SignatureMismatch",
    "LabelCollision",
    "UnpairedSignature",
]


class SignatureMismatch(ValueError):
    """Two elements of different Clifford algebras were combined."""


class LabelCollision(ValueError):
    """A graded tensor product was asked to merge overlapping label sets."""


class UnpairedSignature(ValueError):
    """irreducible_supermodule needs equally many +1 and -1 generators."""


class GaussianRational:
    """An element of Q(i), held as an exact (real, imaginary) pair."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: Fraction | int = 0, im: Fraction | int = 0):
        self._re = Fraction(re)
        self._im = Fraction(im)

    @classmethod
    def zero(cls) -> GaussianRational:
        return cls()

    @classmethod
    def one(cls) -> GaussianRational:
        return cls(1)

    @classmethod
    def i(cls) -> GaussianRational:
        return cls(0, 1)

    @classmethod
    def coerce(cls, value: GaussianRational | Fraction | int) -> GaussianRational:
        if isinstance(value, GaussianRational):
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

    def __add__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        if isinstance(other, (Fraction, int)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __sub__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        if isinstance(other, (Fraction, int)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(self._re - other._re, self._im - other._im)

    def __rsub__(self, other: Fraction | int) -> GaussianRational:
        return GaussianRational(other) - self

    def __neg__(self) -> GaussianRational:
        return GaussianRational(-self._re, -self._im)

    def __mul__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        if isinstance(other, (Fraction, int)):
            return GaussianRational(self._re * other, self._im * other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return GaussianRational(
            self._re * other._re - self._im * other._im,
            self._re * other._im + self._im * other._re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> GaussianRational:
        return GaussianRational(self._re, -self._im)

    def norm(self) -> Fraction:
        """|z|^2 = z * conj(z), a nonnegative rational."""
        return self._re * self._re + self._im * self._im

    def inverse(self) -> GaussianRational:
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational(self._re / n, -self._im / n)

    def __truediv__(self, other: GaussianRational | Fraction | int) -> GaussianRational:
        if isinstance(other, (Fraction, int)):
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other: Fraction | int) -> GaussianRational:
        return GaussianRational(other) * self.inverse()

    def __pow__(self, n: int) -> GaussianRational:
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = GaussianRational.one()
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
            other = GaussianRational(other)
        if not isinstance(other, GaussianRational):
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

    def index(self, label: str) -> int:
        return self._labels.index(label)

    def positive_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self._labels if self._signs[l] == 1)

    def negative_labels(self) -> tuple[str, ...]:
        return tuple(l for l in self._labels if self._signs[l] == -1)

    def concat(self, other: Signature) -> Signature:
        overlap = set(self._labels) & set(other._labels)
        if overlap:
            raise LabelCollision(f"labels {sorted(overlap)} appear on both sides")
        labels = self._labels + other._labels
        signs = dict(self._signs)
        signs.update(other._signs)
        return Signature(labels, signs)

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


class CliffordElement:
    """An element of Cl(S, o) on the sorted-subset monomial basis.

    Coefficients are Gaussian rationals keyed by strictly increasing tuples
    of generator indices; zero coefficients are dropped, so equal elements
    have equal dictionaries.
    """

    __slots__ = ("_sig", "_coeffs")

    def __init__(
        self,
        signature: Signature,
        coefficients: Mapping[tuple[str, ...], GaussianRational | Fraction | int]
        | None = None,
    ):
        self._sig = signature
        coeffs: dict[tuple[int, ...], GaussianRational] = {}
        if coefficients:
            for labels, value in coefficients.items():
                key = self._index_key(signature, labels)
                value = GaussianRational.coerce(value)
                if not value.is_zero():
                    coeffs[key] = coeffs.get(key, GaussianRational.zero()) + value
                    if coeffs[key].is_zero():
                        del coeffs[key]
        self._coeffs = coeffs

    @staticmethod
    def _index_key(sig: Signature, labels: Iterable[str]) -> tuple[int, ...]:
        indices = tuple(sorted(sig.index(l) for l in labels))
        if len(set(indices)) != len(indices):
            raise ValueError(f"monomial {tuple(labels)!r} repeats a generator")
        return indices

    @classmethod
    def _raw(
        cls, sig: Signature, coeffs: dict[tuple[int, ...], GaussianRational]
    ) -> CliffordElement:
        el = cls.__new__(cls)
        el._sig = sig
        el._coeffs = coeffs
        return el

    @classmethod
    def zero(cls, sig: Signature) -> CliffordElement:
        return cls._raw(sig, {})

    @classmethod
    def one(cls, sig: Signature) -> CliffordElement:
        return cls._raw(sig, {(): GaussianRational.one()})

    @classmethod
    def generator(cls, sig: Signature, label: str) -> CliffordElement:
        return cls._raw(sig, {(sig.index(label),): GaussianRational.one()})

    @classmethod
    def monomial(
        cls,
        sig: Signature,
        labels: Iterable[str],
        coeff: GaussianRational | Fraction | int = 1,
    ) -> CliffordElement:
        return cls(sig, {tuple(labels): coeff})

    @property
    def signature(self) -> Signature:
        return self._sig

    def coefficient(self, labels: Iterable[str]) -> GaussianRational:
        key = self._index_key(self._sig, labels)
        return self._coeffs.get(key, GaussianRational.zero())

    def terms(self) -> Iterator[tuple[tuple[str, ...], GaussianRational]]:
        """Monomials in canonical order: by degree, then index tuple."""
        for key in sorted(self._coeffs, key=lambda k: (len(k), k)):
            labels = tuple(self._sig.labels[i] for i in key)
            yield labels, self._coeffs[key]

    def is_zero(self) -> bool:
        return not self._coeffs

    def parity(self) -> int | None:
        """0 or 1 for a homogeneous element, None otherwise (or for zero)."""
        degrees = {len(k) % 2 for k in self._coeffs}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def __add__(self, other: CliffordElement) -> CliffordElement:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        if self._sig != other._sig:
            raise SignatureMismatch("cannot add elements of different algebras")
        coeffs = dict(self._coeffs)
        for key, value in other._coeffs.items():
            total = coeffs.get(key, GaussianRational.zero()) + value
            if total.is_zero():
                coeffs.pop(key, None)
            else:
                coeffs[key] = total
        return CliffordElement._raw(self._sig, coeffs)

    def __sub__(self, other: CliffordElement) -> CliffordElement:
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> CliffordElement:
        return CliffordElement._raw(
            self._sig, {k: -v for k, v in self._coeffs.items()}
        )

    def scale(self, scalar: GaussianRational | Fraction | int) -> CliffordElement:
        scalar = GaussianRational.coerce(scalar)
        if scalar.is_zero():
            return CliffordElement.zero(self._sig)
        return CliffordElement._raw(
            self._sig, {k: v * scalar for k, v in self._coeffs.items()}
        )

    def __mul__(
        self, other: CliffordElement | GaussianRational | Fraction | int
    ) -> CliffordElement:
        if isinstance(other, CliffordElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(
        self, other: GaussianRational | Fraction | int
    ) -> CliffordElement:
        return self.scale(other)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CliffordElement)
            and self._sig == other._sig
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        return hash((self._sig, frozenset(self._coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return "CliffordElement(0)"
        parts = []
        for labels, coeff in self.terms():
            name = "*".join(labels) if labels else "1"
            parts.append(f"({coeff!r})*{name}")
        return "CliffordElement(" + " + ".join(parts) + ")"


def _word_product(
    word: Sequence[int], square: Callable[[int], int]
) -> tuple[tuple[int, ...], int]:
    """The product g_{w0} g_{w1} ... of a generator word, as (sorted key, sign).

    Distinct generators anticommute and equal ones never pass each other in
    a stable sort, so the sign is that of the stable sorting permutation,
    (-1)^(length - cycles), times square(g) for each equal neighbour pair.
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
            sign *= square(g)
        else:
            key.append(g)
    return tuple(key), sign


def evaluate_on_empty(word: Sequence[int]) -> tuple[int, int]:
    """(sign, subset mask) of a word applied to the empty subset of
    (C^{1|1})^{(x) n}, with 2v and 2v+1 factor v's cl11_rep pair.

    Sorted, the factors act from the highest down, each on an even factor
    with only even factors before it, so no Koszul sign arises: a lone
    generator adds v, and the pair (+1)(-1) fixes the empty subset.
    """
    key, sign = _word_product(word, lambda g: -1 if g & 1 else 1)
    mask = 0
    for g in key:
        mask ^= 1 << (g >> 1)
    return sign, mask


def multiply(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """The product in Cl(S, o), extended bilinearly from monomials."""
    if a.signature != b.signature:
        raise SignatureMismatch("cannot multiply elements of different algebras")
    sig = a.signature
    square = [sig.sign(l) for l in sig.labels].__getitem__
    coeffs: dict[tuple[int, ...], GaussianRational] = {}
    for ka, va in a._coeffs.items():
        for kb, vb in b._coeffs.items():
            key, sgn = _word_product(ka + kb, square)
            term = va * vb * sgn
            total = coeffs.get(key, GaussianRational.zero()) + term
            if total.is_zero():
                coeffs.pop(key, None)
            else:
                coeffs[key] = total
    return CliffordElement._raw(sig, coeffs)


def graded_tensor(a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """The image of a (x) b in Cl(S1 u S2) under the canonical isomorphism.

    With the combined generator order "all of S1, then all of S2", a basis
    monomial pair maps to the concatenated subset with coefficient product
    and no extra sign; the Koszul sign of the tensor-product multiplication
    then falls out of the transposition count in the target algebra.  That
    this map is an algebra isomorphism is checked by tests, not assumed.
    """
    sig = a.signature.concat(b.signature)
    shift = len(a.signature)
    coeffs: dict[tuple[int, ...], GaussianRational] = {}
    for ka, va in a._coeffs.items():
        for kb, vb in b._coeffs.items():
            key = ka + tuple(i + shift for i in kb)
            value = va * vb
            if not value.is_zero():
                coeffs[key] = value
    return CliffordElement._raw(sig, coeffs)


def grading_operator_action(a: CliffordElement) -> CliffordElement:
    """alpha(a): multiply each degree-k monomial by (-1)^k."""
    coeffs = {k: (-v if len(k) % 2 else v) for k, v in a._coeffs.items()}
    return CliffordElement._raw(a.signature, coeffs)


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
        rows = tuple(
            tuple(GaussianRational.coerce(v) for v in row) for row in entries
        )
        want_diag = parity == "even"
        for i in range(size):
            for j in range(size):
                on_diag_block = (i < dim_even) == (j < dim_even)
                if on_diag_block != want_diag and not rows[i][j].is_zero():
                    raise ValueError(
                        f"entry ({i},{j}) lies outside the {parity} blocks"
                    )
        self._de = dim_even
        self._do = dim_odd
        self._rows = rows
        self._parity = parity

    @classmethod
    def zero(cls, dim_even: int, dim_odd: int, parity: str = "even") -> SuperMatrix:
        size = dim_even + dim_odd
        return cls(dim_even, dim_odd, [[0] * size for _ in range(size)], parity)

    @classmethod
    def identity(cls, dim_even: int, dim_odd: int) -> SuperMatrix:
        size = dim_even + dim_odd
        rows = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        return cls(dim_even, dim_odd, rows, "even")

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

    def _same_shape(self, other: SuperMatrix) -> None:
        if (self._de, self._do) != (other._de, other._do):
            raise ValueError("supermatrix shapes differ")

    def __add__(self, other: SuperMatrix) -> SuperMatrix:
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        self._same_shape(other)
        if self._parity != other._parity:
            raise ValueError("cannot add matrices of different parity")
        rows = [
            [self._rows[i][j] + other._rows[i][j] for j in range(self.size)]
            for i in range(self.size)
        ]
        return SuperMatrix(self._de, self._do, rows, self._parity)

    def __sub__(self, other: SuperMatrix) -> SuperMatrix:
        return self + (-other)

    def __neg__(self) -> SuperMatrix:
        rows = [[-v for v in row] for row in self._rows]
        return SuperMatrix(self._de, self._do, rows, self._parity)

    def scale(self, scalar: GaussianRational | Fraction | int) -> SuperMatrix:
        scalar = GaussianRational.coerce(scalar)
        rows = [[v * scalar for v in row] for row in self._rows]
        return SuperMatrix(self._de, self._do, rows, self._parity)

    def __mul__(
        self, other: SuperMatrix | GaussianRational | Fraction | int
    ) -> SuperMatrix:
        if not isinstance(other, SuperMatrix):
            return self.scale(other)
        self._same_shape(other)
        n = self.size
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = GaussianRational.zero()
                for k in range(n):
                    a = self._rows[i][k]
                    if a.is_zero():
                        continue
                    acc = acc + a * other._rows[k][j]
                row.append(acc)
            rows.append(row)
        parity = "even" if self._parity == other._parity else "odd"
        return SuperMatrix(self._de, self._do, rows, parity)

    def __rmul__(self, other: GaussianRational | Fraction | int) -> SuperMatrix:
        return self.scale(other)

    def is_zero(self) -> bool:
        return all(v.is_zero() for row in self._rows for v in row)

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


def cl11_rep() -> tuple[SuperMatrix, SuperMatrix]:
    """The odd action matrices of the (+1, -1) generator pair on C^{1|1}.

    In the ordered basis (even vector, odd vector) the +1 generator acts by
    [[0,1],[1,0]] and the -1 generator by [[0,-1],[1,0]]; their product is
    the grading operator diag(1,-1).  Squares and the anticommutator are
    checked here at construction.
    """
    plus = SuperMatrix(1, 1, [[0, 1], [1, 0]], "odd")
    minus = SuperMatrix(1, 1, [[0, -1], [1, 0]], "odd")
    ident = SuperMatrix.identity(1, 1)
    if plus * plus != ident:
        raise ArithmeticError("positive generator must square to +1")
    if minus * minus != -ident:
        raise ArithmeticError("negative generator must square to -1")
    if not (plus * minus + minus * plus).is_zero():
        raise ArithmeticError("the generator pair must anticommute")
    return plus, minus


def irreducible_supermodule(sig: Signature) -> list[SuperMatrix]:
    """Action matrices of Cl(S, o) on its 2^n-dimensional supermodule.

    Requires n generators of square +1 and n of square -1; the k-th
    positive and k-th negative generators (in signature order) act on the
    k-th C^{1|1} tensor factor through the cl11_rep pair, extended over the
    graded tensor product by the Koszul sign rule.  The basis is the
    subsets of factors in odd states, sorted by (parity, mask).  Returns
    one matrix per generator, in signature order; all Clifford relations
    hold exactly.
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
    out = []
    for label in sig.labels:
        negative = sig.sign(label) == -1
        g = 2 * (negatives if negative else positives).index(label) + negative
        rows = [[0] * len(order) for _ in order]
        for j, column in enumerate(columns):
            sign, mask = evaluate_on_empty([g, *column])
            rows[position[mask]][j] = sign
        out.append(SuperMatrix(half, half, rows, "odd"))
    return out
