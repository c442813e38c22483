"""The enumerating Gauss sum: the oracle for the orthogonal splitting.

It tabulates q on all 2^dim classes of H_1, so it is exponential in the
form's dimension and lives here, not in the package.
"""

from arfbrown.quadform import Cyc8, Enhancement, NotRootOfUnity, RootOfUnity8
from arfbrown.surface import IntersectionForm


def q_table(q: Enhancement) -> list[int]:
    """q on every class, indexed by the support bitmask over the basis."""
    form = q.form
    dim = form.dim
    qb = [q.basis_value(form.basis_labels[i]) for i in range(dim)]
    table = [0] * (1 << dim)
    for j in range(dim):
        bit = 1 << j
        for mask in range(bit):
            cross = (mask & form.rows[j]).bit_count() & 1
            table[mask | bit] = (table[mask] + qb[j] + 2 * cross) % 4
    return table


def enumerated_gauss_sum(q: Enhancement) -> Cyc8:
    """S = sum of i^q(x) over all of H_1, class by class."""
    counts = [0, 0, 0, 0]
    for val in q_table(q):
        counts[val] += 1
    total = Cyc8.zero()
    for residue, count in enumerate(counts):
        if count:
            total = total + Cyc8.i_power(residue) * count
    return total


def root_of_gauss_sum(s: Cyc8, dim: int) -> RootOfUnity8:
    """The unique k with s = zeta8^k sqrt(2)^dim."""
    target = Cyc8.sqrt2() ** dim
    for k in range(8):
        if Cyc8.zeta(k) * target == s:
            return RootOfUnity8(k)
    raise NotRootOfUnity(
        f"Gauss sum {s!r} is not zeta8^k * sqrt(2)^{dim} for any k"
    )


def block_sum(pieces: list[Enhancement]) -> Enhancement:
    """The enhancement on the orthogonal sum of the pieces' forms."""
    labels = []
    values = {}
    rows = []
    offset = 0
    for p, q in enumerate(pieces):
        form = q.form
        for label in form.basis_labels:
            new = f"p{p}_{label}"
            labels.append(new)
            values[new] = q.basis_value(label)
        # a piece's rows, shifted to its block of columns
        rows.extend(row << offset for row in form.rows)
        offset += form.dim
    big = IntersectionForm(tuple(labels), tuple(rows))
    return Enhancement(big, values)
