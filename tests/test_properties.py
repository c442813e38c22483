"""Property tests of enhancements and the Brown exponent on generated
nondegenerate forms, and of the one-pass surface scans."""

from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.f2 import F2Matrix, F2Vector
from arfbrown.quadform import Enhancement, arf_brown, evaluate, gauss_sum
from arfbrown.surface import (
    GluingScheme,
    IntersectionForm,
    analyze,
    classify,
    normalize,
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
    form = IntersectionForm(labels, F2Matrix(gram, ncols=dim))
    values = {label: gram[i][i] + 2 * draw(bits) for i, label in enumerate(labels)}
    return Enhancement(form, values)


@_SETTINGS
@given(nondegenerate_enhancements(max_dim=12), st.data())
def test_enhancement_obeys_the_quadratic_law(q, data):
    # q(x + y) = q(x) + q(y) + 2 I(x, y) mod 4
    x, y = (
        F2Vector.from_mask(data.draw(st.integers(0, (1 << q.dim) - 1)), q.dim)
        for _ in range(2)
    )
    pairing = q.form.gram.mv(y).dot(x)
    assert evaluate(q, x + y) == (evaluate(q, x) + evaluate(q, y) + 2 * pairing) % 4


@_SETTINGS
@given(nondegenerate_enhancements(max_dim=12))
def test_split_equals_enumeration_on_generated_forms(q):
    s = enumerated_gauss_sum(q)
    assert arf_brown(q) == root_of_gauss_sum(s, q.dim)
    assert gauss_sum(q) == s


@_SETTINGS
@given(st.lists(nondegenerate_enhancements(max_dim=5), min_size=1, max_size=4))
def test_brown_exponent_adds_over_block_sums(pieces):
    joint = arf_brown(block_sum(pieces)).exponent
    assert joint == sum(arf_brown(q).exponent for q in pieces) % 8


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
def one_vertex_words(draw, max_letters: int):
    """A one-vertex word, grown from a torus or a projective plane by
    inserting a new letter's two occurrences wherever that keeps one vertex
    (by the oracle's count)."""
    word = list(draw(st.sampled_from((GluingScheme.from_text("a b a' b'"),
                                      GluingScheme.from_text("a a")))).word)
    n = draw(st.integers(1, max_letters))
    spot, sign = st.integers(0, 4 * max_letters), st.sampled_from((1, -1))
    for _ in range(4 * n):
        if len(word) >= 2 * n:
            break
        s1, s2, e1, e2 = draw(st.tuples(spot, spot, sign, sign))
        p, q = sorted((s1 % (len(word) + 1), s2 % (len(word) + 1)))
        letter = f"y{len(word)}"
        grown = word[:p] + [(letter, e1)] + word[p:q] + [(letter, e2)] + word[q:]
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
