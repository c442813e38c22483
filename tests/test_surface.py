"""Gluing words: classification, normal forms, and intersection forms."""

import random
from itertools import permutations, product

import pytest

from arfbrown.surface import (
    GluingScheme,
    MalformedWord,
    MultipleVertices,
    analyze,
    intersection_form,
    nonorientable_scheme,
    normalize,
    orientable_scheme,
    surface_form,
)
from surface_oracle import assert_matches_oracle, random_scheme


def test_sphere_word():
    info = analyze(GluingScheme.from_text("a a'"))
    assert info.euler_char == 2
    assert info.orientable
    assert info.betti1_mod2 == 0


def test_torus_word():
    info = analyze(GluingScheme.from_text("a b a' b'"))
    assert info.euler_char == 0
    assert info.orientable
    assert info.betti1_mod2 == 2
    assert info.vertex_count == 1


def test_projective_plane_word():
    info = analyze(GluingScheme.from_text("a a"))
    assert info.euler_char == 1
    assert not info.orientable
    assert info.betti1_mod2 == 1


def test_klein_bottle_words_agree():
    # the two standard presentations of the Klein bottle
    k1 = analyze(GluingScheme.from_text("a b a b'"))
    k2 = analyze(GluingScheme.from_text("a a b b"))
    assert k1 == k2
    assert k1.euler_char == 0 and not k1.orientable


def test_canonical_scheme_constructors():
    assert analyze(orientable_scheme(0)).euler_char == 2
    g3 = analyze(orientable_scheme(3))
    assert g3.euler_char == 2 - 6 and g3.orientable
    k5 = analyze(nonorientable_scheme(5))
    assert k5.euler_char == 2 - 5 and not k5.orientable
    with pytest.raises(ValueError):
        nonorientable_scheme(0)
    with pytest.raises(ValueError):
        orientable_scheme(-1)


def test_canonical_words_pass_the_validating_constructor():
    # the canonical words are built without the checks
    schemes = [orientable_scheme(g) for g in range(21)]
    schemes += [nonorientable_scheme(k) for k in range(1, 41)]
    for s in schemes:
        checked = GluingScheme(s.word)
        assert checked == s and hash(checked) == hash(s)
        assert checked.text() == s.text()


def test_normalize_is_canonical():
    s = GluingScheme.from_text("a b a b'")
    assert normalize(s).text() == nonorientable_scheme(2).text()
    t = GluingScheme.from_text("a b a' b'")
    assert normalize(t).text() == orientable_scheme(1).text()


def test_torus_intersection_form():
    form = intersection_form(GluingScheme.from_text("a b a' b'"))
    assert form.basis_labels == ("a", "b")
    assert form.rows == (0b10, 0b01)


def test_projective_plane_intersection_form():
    form = intersection_form(GluingScheme.from_text("a a"))
    assert form.rows == (0b1,)


def test_klein_bottle_intersection_form():
    form = intersection_form(GluingScheme.from_text("a a b b"))
    assert form.rows == (0b01, 0b10)


def test_sphere_form_is_empty():
    form = intersection_form(GluingScheme.from_text("a a'"))
    assert form.dim == 0


def test_multi_vertex_word_rejected():
    # a torus word with one side subdivided: still chi = 0 but two vertices
    s = GluingScheme.from_text("a1 a2 b a2' a1' b'")
    info = analyze(s)
    assert info.vertex_count == 2 and info.betti1_mod2 == 2
    with pytest.raises(MultipleVertices):
        intersection_form(s)


def test_surface_form_is_built_once_per_scheme():
    schemes = [
        GluingScheme.from_text("a a'"),
        GluingScheme.from_text("a b a' b'"),
        GluingScheme.from_text("a1 a2 b a2' a1' b'"),
        orientable_scheme(3),
        nonorientable_scheme(4),
    ]
    for s in schemes:
        form = surface_form(s)
        # an equal scheme object builds its own, equal form
        assert surface_form(GluingScheme(s.word)) == form


def test_malformed_words():
    with pytest.raises(MalformedWord):
        GluingScheme.from_text("a b a")
    with pytest.raises(MalformedWord):
        GluingScheme.from_text("a a a a")
    with pytest.raises(MalformedWord):
        GluingScheme.from_text("")
    with pytest.raises(MalformedWord):
        GluingScheme([("a", 2), ("a", 1)])


def test_exponents_are_integers_not_truncated_floats():
    with pytest.raises(TypeError):
        GluingScheme([("a", 1.5), ("a", 1.9)])
    assert GluingScheme([("a", True), ("a", -1)]).text() == "a a'"


def test_cyclic_rotation_invariance():
    rng = random.Random(3)
    for _ in range(40):
        s = random_scheme(rng, rng.randint(1, 5))
        k = rng.randrange(len(s))
        rotated = GluingScheme(s.word[k:] + s.word[:k])
        assert analyze(rotated) == analyze(s)


def test_letter_renaming_invariance():
    rng = random.Random(4)
    for _ in range(40):
        s = random_scheme(rng, rng.randint(1, 5))
        names = {letter: f"x{i}" for i, letter in enumerate(s.letters)}
        renamed = GluingScheme([(names[l], e) for l, e in s.word])
        assert analyze(renamed) == analyze(s)


def test_normalize_preserves_classification():
    rng = random.Random(5)
    for _ in range(200):
        s = random_scheme(rng, rng.randint(1, 6))
        info = analyze(s)
        normal = normalize(s)
        ninfo = analyze(normal)
        assert ninfo.euler_char == info.euler_char
        assert ninfo.orientable == info.orientable
        # the normal form itself normalizes to the same word
        assert normalize(normal).text() == normal.text()


def test_normal_form_intersection_form_shape():
    rng = random.Random(6)
    for _ in range(100):
        s = random_scheme(rng, rng.randint(1, 6))
        info = analyze(s)
        form = intersection_form(normalize(s))
        assert form.dim == 2 - info.euler_char
        rows = form.rows
        assert all(0 <= r < 1 << form.dim for r in rows)
        assert all(
            rows[i] >> j & 1 == rows[j] >> i & 1
            for i in range(form.dim)
            for j in range(form.dim)
        )
        if info.orientable:
            assert all(rows[i] >> i & 1 == 0 for i in range(form.dim))
        else:
            assert rows == tuple(1 << i for i in range(form.dim))


def test_random_scheme_is_valid():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randint(1, 6)
        s = random_scheme(rng, n)
        assert len(s) == 2 * n
        counts = {}
        for letter, exp in s.word:
            assert exp in (1, -1)
            counts[letter] = counts.get(letter, 0) + 1
        assert all(c == 2 for c in counts.values())


def test_one_pass_matches_oracle_on_every_short_word():
    # every word of 1-3 letters: each order of the occurrences, each sign
    count = 0
    for n in range(1, 4):
        for order in sorted(set(permutations("abc"[:n] * 2))):
            for signs in product((1, -1), repeat=2 * n):
                assert_matches_oracle(GluingScheme(zip(order, signs)))
                count += 1
    assert count == 4 + 6 * 16 + 90 * 64
