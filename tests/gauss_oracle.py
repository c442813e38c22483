"""The enumerating Gauss sum: the oracle for the orthogonal splitting.

It tabulates q on all 2^dim classes of H_1, so it is exponential in the
form's dimension and lives here, not in the package, as does
``enumerate_enhancements``, which lists all 2^dim enhancements of a form.
Sums are Z[zeta8] coefficient 4-tuples; ``zeta_sqrt2_power`` builds
zeta8^k * sqrt(2)^dim one factor at a time, the reference for the
package's closed form.
"""

from itertools import product

from arfbrown.quadform import Enhancement, NotRootOfUnity
from arfbrown.surface import IntersectionForm


def enumerate_enhancements(form: IntersectionForm) -> list[Enhancement]:
    """All 2^dim enhancements of the form, in lexicographic value order.

    Each basis label admits exactly the two values with the parity forced by
    its self-pairing; the torsor over H^1 is enumerated as their product.
    """
    choices = []
    for i, row in enumerate(form.rows):
        base = row >> i & 1
        choices.append((base, base + 2))
    out = []
    for combo in product(*choices):
        out.append(
            Enhancement(form, dict(zip(form.basis_labels, combo)))
        )
    return out


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


def enumerated_gauss_sum(q: Enhancement) -> tuple[int, int, int, int]:
    """S = sum of i^q(x) over all of H_1, class by class, as Z[zeta8]
    coefficients.  With n_r classes of value r, S = (n0 - n2) + (n1 - n3) i,
    and i = zeta8^2."""
    n = [0, 0, 0, 0]
    for val in q_table(q):
        n[val] += 1
    return (n[0] - n[2], 0, n[1] - n[3], 0)


def cyc_mul(a: tuple, b: tuple) -> tuple[int, int, int, int]:
    """The product of two Z[zeta8] coefficient 4-tuples modulo x^4 + 1."""
    out = [0, 0, 0, 0]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 4:
                out[i + j] += x * y
            else:
                out[i + j - 4] -= x * y  # zeta8^4 = -1
    return tuple(out)


def zeta_sqrt2_power(k: int, dim: int) -> tuple[int, int, int, int]:
    """zeta8^k * (zeta8 - zeta8^3)^dim, one factor at a time."""
    out = (1, 0, 0, 0)
    for _ in range(k % 8):
        out = cyc_mul(out, (0, 1, 0, 0))
    for _ in range(dim):
        out = cyc_mul(out, (0, 1, 0, -1))
    return out


def root_of_gauss_sum(s: tuple, dim: int) -> int:
    """The unique k in 0..7 with s = zeta8^k sqrt(2)^dim."""
    for k in range(8):
        if zeta_sqrt2_power(k, dim) == tuple(s):
            return k
    raise NotRootOfUnity(
        f"Gauss sum {tuple(s)} is not zeta8^k * sqrt(2)^{dim} for any k"
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
