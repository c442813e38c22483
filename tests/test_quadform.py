"""Z/4 enhancements and exact Gauss sums in Z[zeta_8]."""

import random
from fractions import Fraction

import pytest

from arfbrown.quadform import (
    DimensionMismatch,
    Enhancement,
    NotRootOfUnity,
    NotSpin,
    ParityViolation,
    arf,
    arf_brown,
    evaluate,
    gauss_sum,
    gauss_sum_of_root,
)
from arfbrown.surface import (
    GluingScheme,
    IntersectionForm,
    intersection_form,
    nonorientable_scheme,
    orientable_scheme,
    surface_form,
)
from arfbrown.tqft import TheoryClass, partition_function
from gauss_oracle import (
    block_sum,
    enumerate_enhancements,
    enumerated_gauss_sum,
    reference_arf_brown,
    root_of_gauss_sum,
    zeta_sqrt2_power,
)
from surface_oracle import random_scheme


def _form(text: str):
    return intersection_form(GluingScheme.from_text(text))


# ------------------------------------------------------ closed-form sums


def test_closed_form_gauss_sum_matches_the_power_of_sqrt2():
    for k in range(8):
        for dim in range(41):
            assert gauss_sum_of_root(k, dim) == zeta_sqrt2_power(k, dim)


# ------------------------------------------------------------ enhancements


def test_values_must_cover_basis():
    form = _form("a b a' b'")
    with pytest.raises(ValueError):
        Enhancement(form, {"a": 0})
    with pytest.raises(ValueError):
        Enhancement(form, {"a": 0, "b": 0, "c": 0})


def test_parity_of_values_must_match_diagonal():
    torus = _form("a b a' b'")
    with pytest.raises(ParityViolation):
        Enhancement(torus, {"a": 1, "b": 1})
    rp2 = _form("a a")
    with pytest.raises(ParityViolation):
        Enhancement(rp2, {"a": 2})


def test_values_normalized_mod_4():
    form = _form("a b a' b'")
    q = Enhancement(form, {"a": 6, "b": -2})
    assert (q.basis_value("a"), q.basis_value("b")) == (2, 2)


def test_values_are_integers_not_truncated_floats():
    with pytest.raises(TypeError):
        Enhancement(_form("a a"), {"a": 3.9})


def _pairing(rows, x: int, y: int) -> int:
    """I(x, y): the popcounts of y against the rows on x's support, mod 2."""
    return sum((r & y).bit_count() for i, r in enumerate(rows) if x >> i & 1) % 2


def test_quadratic_law_exhaustive_small():
    for text in ["a a", "a b a' b'", "a a b b", "a a b b c c"]:
        form = _form(text)
        for q in enumerate_enhancements(form):
            vecs = range(1 << form.dim)
            for x in vecs:
                for y in vecs:
                    pairing = _pairing(form.rows, x, y)
                    assert (
                        evaluate(q, x ^ y)
                        == (evaluate(q, x) + evaluate(q, y) + 2 * pairing) % 4
                    )


def test_evaluate_matches_incremental_expansion():
    # second route: grow q one support bit at a time in a shuffled order
    rng = random.Random(17)
    for text in ["a b a' b' c d c' d'", "a a b b c c d d"]:
        form = _form(text)
        dim = form.dim
        for _ in range(5):
            q = rng.choice(enumerate_enhancements(form))
            bits = [rng.randint(0, 1) for _ in range(dim)]
            x = sum(b << i for i, b in enumerate(bits))
            support = [i for i in range(dim) if bits[i]]
            rng.shuffle(support)
            acc_vec = 0
            acc_val = 0
            for i in support:
                e = 1 << i
                acc_val = (
                    acc_val
                    + q.basis_value(form.basis_labels[i])
                    + 2 * _pairing(form.rows, acc_vec, e)
                ) % 4
                acc_vec ^= e
            assert acc_val == evaluate(q, x)


def test_evaluate_rejects_wrong_length():
    form = _form("a b a' b'")
    q = Enhancement(form, {"a": 0, "b": 0})
    # a class mask with a bit at or above the dimension, or a negative one
    for x in (0b101, 1 << form.dim, -1):
        with pytest.raises(DimensionMismatch):
            evaluate(q, x)


def test_enhancement_count_is_two_to_dim():
    for text, dim in [("a a", 1), ("a b a' b'", 2), ("a a b b c c", 3)]:
        qs = enumerate_enhancements(_form(text))
        assert len(qs) == 2**dim
        assert len(set(qs)) == 2**dim


def test_parity_pattern_is_constant_on_enhancements():
    form = _form("a a b b")
    for q in enumerate_enhancements(form):
        for i, label in enumerate(form.basis_labels):
            assert q.basis_value(label) % 2 == form.rows[i] >> i & 1


# ------------------------------------------------------------ Arf invariant


def test_torus_arf_values():
    form = _form("a b a' b'")
    got = {
        (q.basis_value("a"), q.basis_value("b")): arf(q)
        for q in enumerate_enhancements(form)
    }
    assert got == {(0, 0): 0, (0, 2): 0, (2, 0): 0, (2, 2): 1}


def test_arf_requires_even_values():
    form = _form("a a")
    with pytest.raises(NotSpin):
        arf(Enhancement(form, {"a": 1}))


def test_arf_additive_over_genus_two():
    form = _form("a b a' b' c d c' d'")
    for q in enumerate_enhancements(form):
        a1 = (q.basis_value("a") // 2) * (q.basis_value("b") // 2)
        a2 = (q.basis_value("c") // 2) * (q.basis_value("d") // 2)
        assert arf(q) == (a1 + a2) % 2


# ---------------------------------------------------------------- Gauss sums


def test_projective_plane_gauss_sums():
    form = _form("a a")
    assert gauss_sum(Enhancement(form, {"a": 1})) == (1, 0, 1, 0)
    assert gauss_sum(Enhancement(form, {"a": 3})) == (1, 0, -1, 0)
    assert arf_brown(Enhancement(form, {"a": 1})) == 1
    assert arf_brown(Enhancement(form, {"a": 3})) == 7


def test_torus_framing_gauss_sum():
    form = _form("a b a' b'")
    q = Enhancement(form, {"a": 2, "b": 2})
    assert gauss_sum(q) == (-2, 0, 0, 0)
    assert arf_brown(q) == 4
    assert evaluate(q, 0b11) == 2


def test_klein_bottle_exponent_multiset():
    form = _form("a a b b")
    exps = sorted(
        arf_brown(q) for q in enumerate_enhancements(form)
    )
    assert exps == [0, 0, 2, 6]


def test_gauss_sum_matches_brute_force():
    for text in ["a a b b c c", "a b a' b' c c"]:
        form = _form(text)
        for q in enumerate_enhancements(form):
            n = [0, 0, 0, 0]
            for x in range(1 << form.dim):
                n[evaluate(q, x)] += 1
            assert gauss_sum(q) == (n[0] - n[2], 0, n[1] - n[3], 0)


def test_gauss_sum_modulus_small():
    for text in ["a a", "a b a' b'", "a a b b", "a a b b c c"]:
        form = _form(text)
        for q in enumerate_enhancements(form):
            c0, c1, c2, c3 = gauss_sum(q)
            assert c1 == c3 == 0
            assert c0 * c0 + c2 * c2 == 2**form.dim


def test_genus_11_evaluates_without_a_dimension_cap():
    # dim 22, past the CLI's default --cap-dim: the library takes any size.
    # q = 2 on every basis class gives Arf 11 mod 2 = 1, so the root is -1.
    scheme = orientable_scheme(11)
    form = intersection_form(scheme)
    assert form.dim == 22
    q = Enhancement(form, {label: 2 for label in form.basis_labels})
    assert arf_brown(q) == 4
    assert gauss_sum(q) == (-(2**11), 0, 0, 0)
    value = partition_function(TheoryClass(1, 2), [q])
    assert value.exponent == 4
    assert value.euler_factor == Fraction(1, 2**20)


def test_arf_brown_spin_reduction_exhaustive_genus2():
    form = intersection_form(orientable_scheme(2))
    for q in enumerate_enhancements(form):
        if q.is_even_valued():
            assert arf_brown(q) == 4 * arf(q)


def test_sphere_gauss_sum():
    form = _form("a a'")
    (q,) = enumerate_enhancements(form)
    assert gauss_sum(q) == (1, 0, 0, 0)
    assert arf_brown(q) == 0


def test_exponent_additivity_via_block_sum():
    # disjoint union = block-diagonal form with concatenated values
    rng = random.Random(23)
    pieces = ["a a", "a b a' b'", "a a b b"]
    for _ in range(20):
        q1 = rng.choice(enumerate_enhancements(_form(rng.choice(pieces))))
        q2 = rng.choice(enumerate_enhancements(_form(rng.choice(pieces))))
        assert (
            arf_brown(block_sum([q1, q2]))
            == (arf_brown(q1) + arf_brown(q2)) % 8
        )


# ------------------------------------------- splitting against enumeration


def _assert_split_matches_enumeration(q):
    s = enumerated_gauss_sum(q)
    assert arf_brown(q) == root_of_gauss_sum(s, q.dim)
    assert gauss_sum(q) == s


def test_split_matches_enumeration():
    canonical = [orientable_scheme(g) for g in range(5)]
    canonical += [nonorientable_scheme(k) for k in range(1, 9)]
    pool = []
    for scheme in canonical:
        for q in enumerate_enhancements(intersection_form(scheme)):
            _assert_split_matches_enumeration(q)
            pool.append(q)
    assert len(pool) == 851

    rng = random.Random(29)
    for _ in range(60):
        pieces = [rng.choice(pool) for _ in range(rng.randint(2, 3))]
        if sum(q.dim for q in pieces) <= 16:
            _assert_split_matches_enumeration(block_sum(pieces))

    rng = random.Random(31)
    dims = set()
    for _ in range(200):
        scheme = random_scheme(rng, rng.randint(1, 16))
        form = surface_form(scheme)
        if form.dim > 16:
            continue
        dims.add(form.dim)
        values = {
            label: (form.rows[i] >> i & 1) + 2 * rng.randint(0, 1)
            for i, label in enumerate(form.basis_labels)
        }
        _assert_split_matches_enumeration(Enhancement(form, values))
    assert max(dims) == 16


def test_degenerate_forms_are_not_roots_of_unity():
    for rows in ((0b0,), (0b01, 0b00)):
        labels = tuple("ab"[: len(rows)])
        form = IntersectionForm(labels, rows)
        for q in enumerate_enhancements(form):
            with pytest.raises(NotRootOfUnity):
                arf_brown(q)
            with pytest.raises(NotRootOfUnity):
                gauss_sum(q)
            with pytest.raises(NotRootOfUnity):
                root_of_gauss_sum(enumerated_gauss_sum(q), q.dim)


# ---------------------------------- elimination against the class-by-class split


def _outcome(q):
    """The exponent of q, or NotRootOfUnity, from the package and from the
    reference; both must agree."""
    results = []
    for split in (arf_brown, reference_arf_brown):
        try:
            results.append(split(q))
        except NotRootOfUnity:
            results.append(NotRootOfUnity)
    assert results[0] == results[1], (q.form.rows, q.values, results)
    return results[0]


def _symmetric_form(dim: int, upper: int) -> IntersectionForm:
    """The symmetric GF(2) form whose entries on and above the diagonal are
    the bits of `upper`, row by row."""
    rows = [0] * dim
    bit = 0
    for i in range(dim):
        for j in range(i, dim):
            if upper >> bit & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            bit += 1
    return IntersectionForm(tuple(f"x{i}" for i in range(dim)), tuple(rows))


def _random_enhancement(rng, form: IntersectionForm) -> Enhancement:
    return Enhancement(form, {
        label: (form.rows[i] >> i & 1) + 2 * rng.randint(0, 1)
        for i, label in enumerate(form.basis_labels)
    })


def test_elimination_matches_the_reference_on_every_form_to_dimension_4():
    outcomes = []
    for dim in range(5):
        for upper in range(1 << dim * (dim + 1) // 2):
            for q in enumerate_enhancements(_symmetric_form(dim, upper)):
                outcomes.append(_outcome(q))
    # 1 + 2*2 + 8*4 + 64*8 + 1024*16 forms and enhancements
    assert len(outcomes) == 16933
    assert set(outcomes) == {*range(8), NotRootOfUnity}


def test_elimination_matches_the_reference_on_every_form_of_dimension_5():
    rng = random.Random(37)
    nondegenerate = 0
    for upper in range(1 << 15):
        form = _symmetric_form(5, upper)
        nondegenerate += _outcome(_random_enhancement(rng, form)) is not NotRootOfUnity
    # the number of invertible symmetric 5 x 5 matrices over GF(2)
    # (MacWilliams, "Orthogonal matrices over finite fields", 1969)
    assert nondegenerate == 13888


def _random_form(rng, dim: int, density: float) -> IntersectionForm:
    """A symmetric GF(2) form whose entries on and above the diagonal are 1
    with the given probability."""
    entries = dim * (dim + 1) // 2
    return _symmetric_form(dim, sum((rng.random() < density) << b for b in range(entries)))


@pytest.mark.parametrize("density", [0.2, 0.5, 0.8])
def test_elimination_matches_the_reference_on_random_forms_to_dimension_64(density):
    rng = random.Random(41)
    outcomes = []
    for dim in range(6, 65):
        for _ in range(4):
            form = _random_form(rng, dim, density)
            outcomes.append(_outcome(_random_enhancement(rng, form)))
    # both kinds of form occur at every density
    assert NotRootOfUnity in outcomes
    assert len(set(outcomes)) > 4


def test_elimination_matches_the_closed_form_on_canonical_words():
    rng = random.Random(43)
    for genus in range(33):
        form = surface_form(orientable_scheme(genus))
        for _ in range(4):
            q = _random_enhancement(rng, form)
            # a hyperbolic pair is worth 4 exactly when q is 2 on both classes
            want = 4 * sum(a == b == 2 for a, b in zip(q.values[::2], q.values[1::2]))
            assert _outcome(q) == want % 8
    for crosscaps in range(1, 65):
        form = surface_form(nonorientable_scheme(crosscaps))
        for _ in range(4):
            q = _random_enhancement(rng, form)
            # a crosscap is worth +1 where q is 1 and -1 where it is 3
            assert _outcome(q) == sum(2 - v for v in q.values) % 8
