"""Exact linear algebra over the two-element field.

Vectors are stored as machine-word bit masks; all semantics are componentwise
XOR and dot products mod 2.  Elimination breaks pivot ties by lowest column
index so reduced forms, ranks, kernels, and symplectic bases are deterministic.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

__all__ = [
    "F2Vector",
    "F2Matrix",
    "rank",
    "kernel_basis",
    "symplectic_basis",
    "NotAlternating",
    "Degenerate",
    "OddDimension",
]


class NotAlternating(ValueError):
    """The bilinear form has a nonzero diagonal entry."""


class Degenerate(ValueError):
    """The bilinear form has nontrivial radical."""


class OddDimension(ValueError):
    """A symplectic basis needs an even-dimensional space."""


class F2Vector:
    """An immutable vector over GF(2) of fixed length."""

    __slots__ = ("_mask", "_n")

    def __init__(self, bits: Iterable[int]):
        mask = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError(f"bit entries must be 0 or 1, got {b!r}")
            mask |= b << n
            n += 1
        self._mask = mask
        self._n = n

    @classmethod
    def from_mask(cls, mask: int, length: int) -> F2Vector:
        v = object.__new__(cls)
        v._mask = mask & ((1 << length) - 1)
        v._n = length
        return v

    @classmethod
    def zero(cls, length: int) -> F2Vector:
        return cls.from_mask(0, length)

    @classmethod
    def basis_vector(cls, length: int, index: int) -> F2Vector:
        if not 0 <= index < length:
            raise IndexError(index)
        return cls.from_mask(1 << index, length)

    @property
    def mask(self) -> int:
        return self._mask

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple((self._mask >> i) & 1 for i in range(self._n))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return (self._mask >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __add__(self, other: F2Vector) -> F2Vector:
        if not isinstance(other, F2Vector):
            return NotImplemented
        if other._n != self._n:
            raise ValueError("length mismatch")
        return F2Vector.from_mask(self._mask ^ other._mask, self._n)

    # every vector is its own additive inverse
    __sub__ = __add__

    def dot(self, other: F2Vector) -> int:
        if other._n != self._n:
            raise ValueError("length mismatch")
        return (self._mask & other._mask).bit_count() & 1

    def weight(self) -> int:
        return self._mask.bit_count()

    def is_zero(self) -> bool:
        return self._mask == 0

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Vector)
            and self._mask == other._mask
            and self._n == other._n
        )

    def __hash__(self) -> int:
        return hash((self._mask, self._n))

    def __repr__(self) -> str:
        return f"F2Vector([{', '.join(str(b) for b in self.bits)}])"


class F2Matrix:
    """An immutable matrix over GF(2), stored as a tuple of row vectors."""

    __slots__ = ("_rows", "_ncols")

    def __init__(self, rows: Sequence[F2Vector | Iterable[int]], ncols: int | None = None):
        vecs = tuple(r if isinstance(r, F2Vector) else F2Vector(r) for r in rows)
        if vecs:
            ncols_found = len(vecs[0])
            if any(len(v) != ncols_found for v in vecs):
                raise ValueError("rows of unequal length")
            if ncols is not None and ncols != ncols_found:
                raise ValueError("ncols disagrees with row length")
            ncols = ncols_found
        elif ncols is None:
            ncols = 0
        self._rows = vecs
        self._ncols = ncols

    @classmethod
    def identity(cls, n: int) -> F2Matrix:
        return cls([F2Vector.basis_vector(n, i) for i in range(n)], ncols=n)

    @classmethod
    def zeros(cls, nrows: int, ncols: int) -> F2Matrix:
        return cls([F2Vector.zero(ncols) for _ in range(nrows)], ncols=ncols)

    @property
    def rows(self) -> tuple[F2Vector, ...]:
        return self._rows

    @property
    def nrows(self) -> int:
        return len(self._rows)

    @property
    def ncols(self) -> int:
        return self._ncols

    def __getitem__(self, i: int) -> F2Vector:
        return self._rows[i]

    def entry(self, i: int, j: int) -> int:
        return self._rows[i][j]

    def column(self, j: int) -> F2Vector:
        return F2Vector(row[j] for row in self._rows)

    def transpose(self) -> F2Matrix:
        return F2Matrix(
            [self.column(j) for j in range(self._ncols)], ncols=self.nrows
        )

    def mv(self, v: F2Vector) -> F2Vector:
        """Matrix-vector product over GF(2)."""
        if len(v) != self._ncols:
            raise ValueError("length mismatch")
        return F2Vector(row.dot(v) for row in self._rows)

    def is_symmetric(self) -> bool:
        return self.nrows == self._ncols and all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.nrows)
            for j in range(i)
        )

    def to_lists(self) -> list[list[int]]:
        return [list(row.bits) for row in self._rows]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, F2Matrix)
            and self._rows == other._rows
            and self._ncols == other._ncols
        )

    def __hash__(self) -> int:
        return hash((self._rows, self._ncols))

    def __repr__(self) -> str:
        return f"F2Matrix({self.to_lists()})"


def _echelon(masks: list[int], ncols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form of bitmask rows.

    Returns (nonzero reduced rows, pivot column per row).  Columns are
    processed left to right, which realizes the lowest-column tie break.
    """
    rows = [m for m in masks]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        bit = 1 << col
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i] & bit:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i] & bit:
                rows[i] ^= rows[r]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def rank(m: F2Matrix) -> int:
    """GF(2) rank, computed by Gaussian elimination."""
    reduced, _ = _echelon([row.mask for row in m.rows], m.ncols)
    return len(reduced)


def kernel_basis(m: F2Matrix) -> list[F2Vector]:
    """A deterministic basis of the right kernel {v : m v = 0}."""
    reduced, pivots = _echelon([row.mask for row in m.rows], m.ncols)
    pivot_set = set(pivots)
    basis: list[F2Vector] = []
    for free in range(m.ncols):
        if free in pivot_set:
            continue
        mask = 1 << free
        for row, pcol in zip(reduced, pivots):
            if row & (1 << free):
                mask |= 1 << pcol
        basis.append(F2Vector.from_mask(mask, m.ncols))
    return basis


def symplectic_basis(gram: F2Matrix) -> list[tuple[F2Vector, F2Vector]]:
    """Pairs (e_i, f_i) with B(e_i, f_j) = delta_ij and all other pairings 0.

    The Gram matrix must be symmetric, alternating (zero diagonal),
    nondegenerate, and of even dimension.  Computed by the standard
    alternating-form Gram-Schmidt over GF(2); vectors are returned in the
    coordinates of the original basis.
    """
    n = gram.nrows
    if gram.ncols != n or not gram.is_symmetric():
        raise ValueError("gram matrix must be square and symmetric")
    for i in range(n):
        if gram.entry(i, i):
            raise NotAlternating(f"diagonal entry {i} is 1")
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    if rank(gram) < n:
        raise Degenerate("gram matrix is singular")

    rows = [row.mask for row in gram.rows]

    def pairing(u: F2Vector, v: F2Vector) -> int:
        # u^T G is the sum of the rows on the support of u, so the cost
        # follows the weight of u, not the dimension
        image, support = 0, u.mask
        while support:
            low = support & -support
            image ^= rows[low.bit_length() - 1]
            support ^= low
        return (image & v.mask).bit_count() & 1

    remaining = [F2Vector.basis_vector(n, i) for i in range(n)]
    pairs: list[tuple[F2Vector, F2Vector]] = []
    while remaining:
        e = remaining.pop(0)
        partner = next(
            (i for i, v in enumerate(remaining) if pairing(e, v) == 1), None
        )
        if partner is None:
            raise Degenerate("no symplectic partner; form is degenerate")
        f = remaining.pop(partner)
        pairs.append((e, f))
        remaining = [
            v + (e if pairing(v, f) else F2Vector.zero(n))
            + (f if pairing(v, e) else F2Vector.zero(n))
            for v in remaining
        ]
    return pairs
