"""Exact reference answers, written independently of the package under test.

Nothing here imports ``arfbrown``.  Surfaces are analysed from their gluing
words with a union-find over polygon corners, the Arf-Brown exponent is
computed by orthogonal splitting of the intersection form (polynomial in
the form's dimension), and chain spectra come from the closed form: the
edge terms of 2H pairwise commute and square to 1, so 2H has eigenvalues
-E + 2j with multiplicity C(E, j) * 2^(n - E), where E is the number of
edge terms (n on a circle, n - 1 on an interval).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import comb
import string

# --------------------------------------------------------------- surfaces


def parse_word(text: str) -> list[tuple[str, int]]:
    return [(t[:-1], -1) if t.endswith("'") else (t, 1) for t in text.split()]


def word_text(word: list[tuple[str, int]]) -> str:
    return " ".join(a if e == 1 else a + "'" for a, e in word)


def letter_names():
    """a..z, then a1..z1, a2..z2, ... (the canonical words' letters)."""
    yield from string.ascii_lowercase
    for i in count(1):
        for ch in string.ascii_lowercase:
            yield f"{ch}{i}"


def vertex_count(word: list[tuple[str, int]]) -> int:
    """Polygon corners left after gluing each pair of sides arrow to arrow."""
    length = len(word)
    parent = list(range(length))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen: dict[str, int] = {}
    for i, (letter, exp) in enumerate(word):
        if letter not in seen:
            seen[letter] = i
            continue
        j = seen[letter]
        ends_i = (i, (i + 1) % length) if exp == 1 else ((i + 1) % length, i)
        ends_j = (j, (j + 1) % length) if word[j][1] == 1 else ((j + 1) % length, j)
        for a, b in zip(ends_i, ends_j):
            parent[find(a)] = find(b)
    return sum(1 for i in range(length) if find(i) == i)


def canonical_word(orientable: bool, betti1: int) -> list[tuple[str, int]]:
    names = letter_names()
    if betti1 == 0:
        a = next(names)
        return [(a, 1), (a, -1)]
    word: list[tuple[str, int]] = []
    if orientable:
        for _ in range(betti1 // 2):
            a, b = next(names), next(names)
            word += [(a, 1), (b, 1), (a, -1), (b, -1)]
    else:
        for _ in range(betti1):
            a = next(names)
            word += [(a, 1), (a, 1)]
    return word


def one_vertex_form(word: list[tuple[str, int]]) -> tuple[list[str], list[list[int]]]:
    """Basis = letters in first-occurrence order; I(a, a) = 1 iff the two
    occurrences have equal signs; I(a, b) = 1 iff the occurrences interleave."""
    pos: dict[str, list[int]] = {}
    sign: dict[str, list[int]] = {}
    for i, (letter, exp) in enumerate(word):
        pos.setdefault(letter, []).append(i)
        sign.setdefault(letter, []).append(exp)
    labels = list(pos)
    d = len(labels)
    gram = [[0] * d for _ in range(d)]
    for i, a in enumerate(labels):
        gram[i][i] = int(sign[a][0] == sign[a][1])
        lo, hi = pos[a]
        for j in range(i + 1, d):
            inside = sum(1 for p in pos[labels[j]] if lo < p < hi)
            gram[i][j] = gram[j][i] = inside & 1
    return labels, gram


def analyse_surface(text: str) -> dict:
    """Everything the ``surface`` command reports about one word."""
    word = parse_word(text)
    letters = len(word) // 2
    vertices = vertex_count(word)
    chi = vertices - letters + 1
    signs: dict[str, list[int]] = {}
    for letter, exp in word:
        signs.setdefault(letter, []).append(exp)
    orientable = all(sorted(s) == [-1, 1] for s in signs.values())
    betti1 = 2 - chi
    normal = canonical_word(orientable, betti1)
    if betti1 == 0:
        labels, gram = [], []
    elif vertices == 1:
        labels, gram = one_vertex_form(word)
    else:
        labels, gram = one_vertex_form(normal)
    return {
        "euler_char": chi,
        "orientable": orientable,
        "betti1": betti1,
        "vertex_count": vertices,
        "normal_form": word_text(normal),
        "form_basis": labels,
        "gram": gram,
    }


# ------------------------------------------------------ Arf-Brown exponent


def brown_exponent(gram: list[list[int]], values: list[int]) -> int:
    """k in Z/8 with sum_x i^q(x) = zeta8^k * sqrt(2)^dim, by splitting.

    The form is nondegenerate.  A vector x with I(x, x) = 1 splits off a
    rank-1 piece worth +1 (q(x) = 1) or -1 (q(x) = 3); otherwise a
    hyperbolic pair (e, f) splits off a piece worth 4 if q(e) = q(f) = 2 and
    0 if not.  The rest is projected onto the orthogonal complement, with q
    carried along by q(u + v) = q(u) + q(v) + 2 I(u, v).
    """
    d = len(values)
    rows = [sum(bit << j for j, bit in enumerate(r)) for r in gram]

    def pair(u: int, v: int) -> int:
        acc = 0
        for i in range(d):
            if u >> i & 1:
                acc ^= (rows[i] & v).bit_count() & 1
        return acc

    vecs = [(1 << i, values[i] % 4) for i in range(d)]
    k = 0
    while vecs:
        odd = next((i for i, (v, _) in enumerate(vecs) if pair(v, v)), None)
        if odd is not None:
            x, qx = vecs.pop(odd)
            k += 1 if qx == 1 else -1
            vecs = [
                (v ^ x, (qv + qx + 2) % 4) if pair(v, x) else (v, qv)
                for v, qv in vecs
            ]
            continue
        e, qe = vecs.pop(0)
        partner = next(i for i, (v, _) in enumerate(vecs) if pair(e, v))
        f, qf = vecs.pop(partner)
        k += 4 if qe == qf == 2 else 0
        out = []
        for v, qv in vecs:
            if pair(v, f):
                qv = (qv + qe + 2 * pair(v, e)) % 4
                v ^= e
            if pair(v, e):
                qv = (qv + qf + 2 * pair(v, f)) % 4
                v ^= f
            out.append((v, qv))
        vecs = out
    return k % 8


# ----------------------------------------------------- Z[zeta8] arithmetic


def cyc_mul(a: tuple, b: tuple) -> tuple:
    out = [0, 0, 0, 0]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            if i + j < 4:
                out[i + j] += x * y
            else:
                out[i + j - 4] -= x * y
    return tuple(out)


def cyc_zeta(k: int) -> tuple:
    k %= 8
    out = [0, 0, 0, 0]
    out[k % 4] = 1 if k < 4 else -1
    return tuple(out)


def cyc_conj(a: tuple) -> tuple:
    return (a[0], -a[3], -a[2], -a[1])


def expected_gauss_sum(k: int, dim: int) -> tuple:
    """zeta8^k * (zeta8 - zeta8^3)^dim."""
    out = cyc_zeta(k)
    for _ in range(dim):
        out = cyc_mul(out, (0, 1, 0, -1))
    return out


# ------------------------------------------------------ Gaussian rationals


def gaussian_literal(re: Fraction, im: Fraction) -> str:
    """The theory-spec literal for re + im*i (examples: 2, -1/2, i, 1+i)."""
    if im == 0:
        return str(re)
    imag = {1: "i", -1: "-i"}.get(im, f"{im}i")
    if re == 0:
        return imag
    return f"{re}{'' if imag.startswith('-') else '+'}{imag}"


def gaussian_pow(re: Fraction, im: Fraction, n: int) -> tuple[Fraction, Fraction]:
    if n < 0:
        norm = re * re + im * im
        re, im, n = re / norm, -im / norm, -n
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = (out[0] * re - out[1] * im, out[0] * im + out[1] * re)
    return out


def enc_gaussian(z: tuple[Fraction, Fraction]) -> dict:
    return {
        "re": [z[0].numerator, z[0].denominator],
        "im": [z[1].numerator, z[1].denominator],
    }


# ------------------------------------------------------------------ chains


def chain_spectrum(kind: str, n: int) -> list:
    """Structured-output spectrum of H: [[num, den], multiplicity] pairs."""
    edges = n if kind == "circle" else n - 1
    out = []
    for j in range(edges + 1):
        value = Fraction(-edges + 2 * j, 2)
        out.append([[value.numerator, value.denominator], comb(edges, j) << (n - edges)])
    return out
