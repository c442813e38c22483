"""The enumerating Gauss sum: the oracle for the orthogonal splitting.

It tabulates q on all 2^dim classes of H_1, so it is exponential in the
form's dimension and lives here, not in the package, as does
``enumerate_enhancements``, which lists all 2^dim enhancements of a form.
Sums are Z[zeta8] coefficient 4-tuples; ``zeta_sqrt2_power`` builds
zeta8^k * sqrt(2)^dim one factor at a time, the reference for the
package's closed form.  ``reference_arf_brown`` is the class-by-class
orthogonal split that ``quadform.arf_brown`` replaced with Gram-row
elimination, kept as its reference.
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


def reference_arf_brown(q: Enhancement) -> int:
    """The Arf-Brown exponent by splitting off pieces class by class.

    Every remaining class is a triple (bitmask, its row image under the Gram
    matrix, q).  A class x with I(x, x) = 1 is a rank-1 piece worth +1 if
    q(x) = 1 and -1 if q(x) = 3; otherwise the first class e and its first
    partner f with I(e, f) = 1 are a hyperbolic piece worth 4 if q(e) =
    q(f) = 2 and 0 if not.  Each pivot moves every remaining class into the
    piece's orthogonal complement, with q carried along by the quadratic
    law.  A class left without a partner is in the radical (NotRootOfUnity).
    """
    form = q.form
    classes = [(1 << i, r, v) for i, (r, v) in enumerate(zip(form.rows, q.values))]
    k = 0
    while classes:
        odd = next(
            (i for i, (v, r, _) in enumerate(classes) if (v & r).bit_count() & 1),
            None,
        )
        if odd is not None:
            x, rx, qx = classes.pop(odd)
            k += 1 if qx == 1 else -1
            classes = [
                (v ^ x, r ^ rx, (qv + qx + 2) % 4) if (r & x).bit_count() & 1
                else (v, r, qv)
                for v, r, qv in classes
            ]
            continue
        e, re, qe = classes.pop(0)
        partner = next(
            (i for i, (v, _, _) in enumerate(classes) if (re & v).bit_count() & 1),
            None,
        )
        if partner is None:
            raise NotRootOfUnity(
                "the form is degenerate, so its Gauss sum is not"
                f" zeta8^k * sqrt(2)^{q.dim} for any k"
            )
        f, rf, qf = classes.pop(partner)
        k += 4 if qe == qf == 2 else 0
        rest = []
        for v, r, qv in classes:
            if (r & f).bit_count() & 1:
                qv = (qv + qe + 2 * ((r & e).bit_count() & 1)) % 4
                v, r = v ^ e, r ^ re
            if (r & e).bit_count() & 1:
                # v pairs evenly with f by now, so the cross term vanishes
                qv = (qv + qf) % 4
                v, r = v ^ f, r ^ rf
            rest.append((v, r, qv))
        classes = rest
    return k % 8
