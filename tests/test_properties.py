"""Property tests of enhancements and the Brown exponent on generated
nondegenerate forms, of the one-pass surface scans, and of AB = 4 Arf on
spin surfaces."""

from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.quadform import Enhancement, arf, arf_brown, evaluate, gauss_sum
from arfbrown.surface import (
    GluingScheme,
    IntersectionForm,
    analyze,
    classify,
    intersection_form,
    normalize,
    orientable_scheme,
    surface_form,
)
from gauss_oracle import block_sum, enumerated_gauss_sum, root_of_gauss_sum
from surface_oracle import assert_matches_oracle, vertex_count

_SETTINGS = settings(max_examples=100, deadline=None, database=None)


@st.composite
def nondegenerate_enhancements(draw, max_dim: int):
    """q on G = P B P^T: B is a block sum of rank-1 pieces [1] and
    hyperbolic pairs, and P = L U with L, U unitriangular, so G is
    nondegenerate; the values on the new basis only need G's diagonal
    parity."""
    dim = draw(st.integers(0, max_dim))
    pairs = draw(st.integers(0, dim // 2))
    block = [[0] * dim for _ in range(dim)]
    for i in range(2 * pairs, dim):
        block[i][i] = 1
    for i in range(0, 2 * pairs, 2):
        block[i][i + 1] = block[i + 1][i] = 1
    bits = st.integers(0, 1)
    lower = [[1 if i == j else draw(bits) if j < i else 0 for j in range(dim)]
             for i in range(dim)]
    upper = [[1 if i == j else draw(bits) if j > i else 0 for j in range(dim)]
             for i in range(dim)]

    def mul(a, b):
        return [[sum(a[i][k] & b[k][j] for k in range(dim)) & 1
                 for j in range(dim)] for i in range(dim)]

    p = mul(lower, upper)
    pt = [list(col) for col in zip(*p)]
    gram = mul(mul(p, block), pt)
    labels = tuple(f"x{i}" for i in range(dim))
    rows = tuple(sum(b << j for j, b in enumerate(row)) for row in gram)
    form = IntersectionForm(labels, rows)
    values = {label: gram[i][i] + 2 * draw(bits) for i, label in enumerate(labels)}
    return Enhancement(form, values)


@_SETTINGS
@given(nondegenerate_enhancements(max_dim=12), st.data())
def test_enhancement_obeys_the_quadratic_law(q, data):
    # q(x + y) = q(x) + q(y) + 2 I(x, y) mod 4
    x, y = (data.draw(st.integers(0, (1 << q.dim) - 1)) for _ in range(2))
    rows = q.form.rows
    pairing = sum((rows[i] & y).bit_count() for i in range(q.dim) if x >> i & 1) % 2
    assert evaluate(q, x ^ y) == (evaluate(q, x) + evaluate(q, y) + 2 * pairing) % 4


@_SETTINGS
@given(nondegenerate_enhancements(max_dim=12))
def test_split_equals_enumeration_on_generated_forms(q):
    s = enumerated_gauss_sum(q)
    k = arf_brown(q)
    assert k == root_of_gauss_sum(s, q.dim)
    # rank-1 pieces are worth +-1 and hyperbolic ones 0 or 4
    assert k % 2 == q.dim % 2
    total = gauss_sum(q)
    assert total == s
    # every term i^q(x) lies in Z[i]
    assert total[1] == total[3] == 0


@_SETTINGS
@given(st.lists(nondegenerate_enhancements(max_dim=5), min_size=1, max_size=4))
def test_brown_exponent_adds_over_block_sums(pieces):
    joint = arf_brown(block_sum(pieces))
    assert joint == sum(arf_brown(q) for q in pieces) % 8


@st.composite
def gluing_words(draw, max_letters: int):
    """A word on 1..max_letters letters: a shuffle of each letter twice,
    each occurrence with a drawn sign.  Most such words have several
    vertices."""
    n = draw(st.integers(1, max_letters))
    order = draw(st.permutations([f"x{i}" for i in range(n)] * 2))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=2 * n, max_size=2 * n))
    return GluingScheme(zip(order, signs))


@st.composite
def one_vertex_words(draw, max_letters: int, orientable: bool = False):
    """A one-vertex word, grown from a torus or a projective plane by
    inserting a new letter's two occurrences wherever that keeps one vertex
    (by the oracle's count).  An orientable word grows from the torus by
    two letters at a time, each with opposite signs, since one letter more
    changes the parity of the Euler characteristic."""
    starts = [GluingScheme.from_text("a b a' b'")]
    if not orientable:
        starts.append(GluingScheme.from_text("a a"))
    word = list(draw(st.sampled_from(starts)).word)
    n = draw(st.integers(1, max_letters))
    spot, sign = st.integers(0, 4 * max_letters), st.sampled_from((1, -1))
    for _ in range(4 * n):
        if len(word) >= 2 * n:
            break
        grown = word
        for _ in range(1 + orientable):
            s1, s2, e1, e2 = draw(st.tuples(spot, spot, sign, sign))
            e2 = -e1 if orientable else e2
            p, q = sorted((s1 % (len(grown) + 1), s2 % (len(grown) + 1)))
            letter = f"y{len(grown)}"
            grown = grown[:p] + [(letter, e1)] + grown[p:q] + [(letter, e2)] + grown[q:]
        if vertex_count(GluingScheme(grown)) == 1:
            word = grown
    return GluingScheme(word)


@_SETTINGS
@given(st.one_of(gluing_words(60), one_vertex_words(60)))
def test_one_pass_surface_scans_match_oracle(s):
    assert_matches_oracle(s)


@_SETTINGS
@given(st.one_of(gluing_words(60), one_vertex_words(60)))
def test_classify_is_analyze_normalize_and_surface_form(s):
    assert classify(s) == (analyze(s), normalize(s), surface_form(s))


@_SETTINGS
@given(
    st.one_of(st.integers(0, 32).map(orientable_scheme),
              one_vertex_words(40, orientable=True)),
    st.data(),
)
def test_spin_exponent_is_four_times_arf(s, data):
    # AB = 4 Arf on a spin surface (Kirby-Taylor): arf goes through
    # f2.symplectic_basis, apart from the Brown split
    form = intersection_form(s)
    halves = data.draw(st.integers(0, (1 << form.dim) - 1))
    q = Enhancement(form, {x: 2 * (halves >> i & 1) for i, x in enumerate(form.basis_labels)})
    assert arf_brown(q) == 4 * arf(q)
