"""Exact linear algebra over the two-element field.

Vectors are int masks, bit i the i-th coordinate, and matrices are sequences
of row masks; all semantics are componentwise XOR and dot products mod 2,
the dot product of u and v being the parity of (u & v).  Symplectic bases
pair each vector with its lowest-index partner, so they are deterministic.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
    "json_rows",
    "rank",
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


def json_rows(masks: Sequence[int], n: int) -> str:
    """The rows as compact JSON text of 0/1 lists, bit 0 first: the text of
    ``json.dumps(rows, separators=(",", ":"))``.  Only bits below n count."""
    if not n or not masks:
        return "[" + ",".join(["[]"] * len(masks)) + "]"
    # each row takes 2n + 2 bytes, "[d,d,...,d],", whose odd offsets hold
    # its n digits and the closing comma, so one slice assignment writes
    # every row; a numeral's last n digits read backwards are bits 0 to
    # n - 1, and the bit at n keeps the leading zeros
    text = bytearray(b"[" + b"0," * (n - 1) + b"0],") * len(masks)
    top = 1 << n
    text[1::2] = (",".join([bin(m | top)[:~n:-1] for m in masks]) + ",").encode()
    text[-1] = ord("]")
    return "[" + text.decode()


def rank(rows: Sequence[int]) -> int:
    """GF(2) rank of the row masks, computed by Gaussian elimination."""
    pivots: dict[int, int] = {}  # lowest set bit -> reduced row
    for mask in rows:
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = mask
                break
            mask ^= pivots[low]  # clears bit low, touches only higher bits
    return len(pivots)


def symplectic_basis(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (e_i, f_i) with B(e_i, f_j) = delta_ij and all other pairings 0.

    rows[i] is the Gram row of basis vector i, bit j the pairing B(e_i, e_j).
    The form must be square and symmetric, alternating (zero diagonal),
    nondegenerate, and of even dimension.  Computed by the standard
    alternating-form Gram-Schmidt over GF(2); vectors are returned as masks
    in the coordinates of the original basis.
    """
    n = len(rows)
    if any(r < 0 or r >> n for r in rows) or any(
        (r >> j ^ rows[j] >> i) & 1 for i, r in enumerate(rows) for j in range(i)
    ):
        raise ValueError("gram matrix must be square and symmetric")
    for i, r in enumerate(rows):
        if r >> i & 1:
            raise NotAlternating(f"diagonal entry {i} is 1")
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    if rank(rows) < n:
        raise Degenerate("gram matrix is singular")

    def pairing(u: int, v: int) -> int:
        # u^T G is the sum of the rows on the support of u, so the cost
        # follows the weight of u, not the dimension
        image = 0
        while u:
            low = u & -u
            image ^= rows[low.bit_length() - 1]
            u ^= low
        return (image & v).bit_count() & 1

    remaining = [1 << i for i in range(n)]
    pairs: list[tuple[int, int]] = []
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
            v ^ (e if pairing(v, f) else 0) ^ (f if pairing(v, e) else 0)
            for v in remaining
        ]
    return pairs
