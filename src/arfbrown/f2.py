"""Exact linear algebra over the two-element field: symplectic bases.

Vectors are int masks, bit i the i-th coordinate, and matrices are sequences
of row masks; all semantics are componentwise XOR and dot products mod 2,
the dot product of u and v being the parity of (u & v).  Symplectic bases
pair each vector with its lowest-index partner, so they are deterministic.
"""

from __future__ import annotations

from typing import Sequence

__all__ = [
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


def symplectic_basis(rows: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (e_i, f_i) with B(e_i, f_j) = delta_ij and all other pairings 0.

    rows[i] is the Gram row of basis vector i, bit j the pairing B(e_i, e_j).
    The form must be square and symmetric, alternating (zero diagonal),
    nondegenerate, and of even dimension.  Computed by the standard
    alternating-form Gram-Schmidt over GF(2); vectors are returned as masks
    in the coordinates of the original basis.  Each vector is held with its
    Gram row image, as in ``quadform.arf_brown``, so a pairing is one AND and
    a parity; a vector left without a partner is in the radical (Degenerate).
    """
    n = len(rows)
    # text[i][j] is bit j of rows[i]; a row out of range is left out, so text is short
    text = [format(r, f"0{n}b")[::-1] for r in rows if not (r < 0 or r >> n)]
    if len(text) < n or any(t != "".join(c) for t, c in zip(text, zip(*text))):
        raise ValueError("gram matrix must be square and symmetric")
    for i, r in enumerate(rows):
        if r >> i & 1:
            raise NotAlternating(f"diagonal entry {i} is 1")
    if n % 2:
        raise OddDimension(f"dimension {n} is odd")
    remaining = [(1 << i, r) for i, r in enumerate(rows)]
    pairs: list[tuple[int, int]] = []
    while remaining:
        e, re = remaining.pop(0)
        partner = next(
            (i for i, (v, _) in enumerate(remaining) if (re & v).bit_count() & 1), None
        )
        if partner is None:
            raise Degenerate("no symplectic partner; form is degenerate")
        f, rf = remaining.pop(partner)
        pairs.append((e, f))
        rest = []
        for v, r in remaining:
            # B(v, e) is unchanged by adding e, since B(e, e) = 0
            if (r & f).bit_count() & 1:
                v, r = v ^ e, r ^ re
            if (r & e).bit_count() & 1:
                v, r = v ^ f, r ^ rf
            rest.append((v, r))
        remaining = rest
    return pairs
