"""The symplectic Gram-Schmidt as first written: the oracle for the
elimination in ``arfbrown.f2.symplectic_basis``, with the GF(2) ``rank``
that the tests use.

A rank pass rejects a degenerate form before the loop, the symmetry check
tests each pair of entries bit by bit, and each pairing sums the Gram rows
over the support of a vector, so it costs the weight of that vector in row
additions.  The package compares each row with its column as text and
carries each vector's row image instead; both pick the same partner at
every step, so they return the same pairs.
"""

from arfbrown.f2 import Degenerate, NotAlternating, OddDimension


def rank(rows):
    """GF(2) rank of the row masks, computed by Gaussian elimination."""
    pivots = {}  # lowest set bit -> reduced row
    for mask in rows:
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = mask
                break
            mask ^= pivots[low]  # clears bit low, touches only higher bits
    return len(pivots)


def oracle_symplectic_basis(rows):
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

    def pairing(u, v):
        image = 0
        while u:
            low = u & -u
            image ^= rows[low.bit_length() - 1]
            u ^= low
        return (image & v).bit_count() & 1

    remaining = [1 << i for i in range(n)]
    pairs = []
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


def outcome(function, rows):
    """The pairs, or the type of the exception raised."""
    try:
        return function(rows)
    except ValueError as exc:
        return type(exc)
