"""Clifford superalgebras, graded tensor products, and supermodules."""

import random
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from arfbrown.clifford import (
    CliffordElement,
    GaussianRational,
    LabelCollision,
    Signature,
    SignatureMismatch,
    SuperMatrix,
    UnpairedSignature,
    cl11_rep,
    evaluate_on_empty,
    graded_tensor,
    grading_operator_action,
    irreducible_supermodule,
    multiply,
)
from arfbrown._dense import majoranas
from arfbrown.exactla import rational_nullity
from chain_oracle import identity, negate
from clifford_checks import assert_clifford_relations, int_matrix


# ------------------------------------------------------- Gaussian rationals


def test_gaussian_field_operations():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(Fraction(-2), Fraction(1, 3))
    assert a + b == GaussianRational(Fraction(-3, 2), Fraction(13, 12))
    assert a * b == GaussianRational(
        Fraction(1, 2) * Fraction(-2) - Fraction(3, 4) * Fraction(1, 3),
        Fraction(1, 2) * Fraction(1, 3) + Fraction(3, 4) * Fraction(-2),
    )
    assert (a / b) * b == a
    assert a - a == GaussianRational.zero()


def test_gaussian_i_squares_to_minus_one():
    i = GaussianRational.i()
    assert i * i == GaussianRational(-1)
    assert i**4 == GaussianRational.one()
    assert i**-1 == -i


def test_gaussian_norm_and_conjugate():
    z = GaussianRational(3, 4)
    assert z.norm() == Fraction(25)
    assert z * z.conjugate() == GaussianRational(25)
    assert z.conjugate() == GaussianRational(3, -4)


def test_gaussian_coerce_and_equality():
    assert GaussianRational.coerce(2) == GaussianRational(2)
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(7) == 7
    assert GaussianRational(0, 1) != 0


def test_gaussian_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        GaussianRational.zero().inverse()


# ---------------------------------------------------------------- signatures


def test_cl_signature_layout():
    sig = Signature.cl(2, 1)
    assert sig.labels == ("e1", "e2", "f1")
    assert sig.sign("e2") == 1 and sig.sign("f1") == -1
    assert sig.positive_labels() == ("e1", "e2")
    assert sig.negative_labels() == ("f1",)


def test_signature_concat_and_collision():
    s1 = Signature.cl(1)
    s2 = Signature(["g"], {"g": -1})
    s = s1.concat(s2)
    assert s.labels == ("e1", "g")
    with pytest.raises(LabelCollision):
        s.concat(Signature(["g"], {"g": 1}))


# ------------------------------------------------------------ algebra basics


def test_generator_squares_match_signature():
    sig = Signature.cl(2, 2)
    one = CliffordElement.one(sig)
    for label in sig.labels:
        g = CliffordElement.generator(sig, label)
        assert g * g == one.scale(sig.sign(label))


def test_generators_anticommute():
    sig = Signature.cl(2, 2)
    gens = [CliffordElement.generator(sig, l) for l in sig.labels]
    for a, b in combinations(gens, 2):
        assert (a * b + b * a).is_zero()


def test_unordered_monomial_sorts_with_sign():
    sig = Signature.cl(3)
    e1, e2, e3 = (CliffordElement.generator(sig, l) for l in sig.labels)
    assert e3 * e1 == -(e1 * e3)
    assert e2 * e1 * e3 == -(e1 * e2 * e3)
    # repeated factor collapses through the square
    assert e1 * e2 * e1 == -e2


def test_mixed_signature_arithmetic_rejected():
    a = CliffordElement.generator(Signature.cl(1), "e1")
    b = CliffordElement.generator(Signature.cl(0, 1), "f1")
    with pytest.raises(SignatureMismatch):
        a * b
    with pytest.raises(SignatureMismatch):
        a + b


def test_multiply_function_matches_operator():
    sig = Signature.cl(2, 1)
    rng = random.Random(29)
    for _ in range(10):
        a = _random_element(rng, sig)
        b = _random_element(rng, sig)
        assert multiply(a, b) == a * b


def _random_element(rng, sig):
    out = CliffordElement.zero(sig)
    for _ in range(rng.randint(1, 4)):
        size = rng.randint(0, len(sig.labels))
        labels = rng.sample(list(sig.labels), size)
        coeff = GaussianRational(
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
            Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
        )
        out = out + CliffordElement.monomial(sig, labels, coeff)
    return out


def test_associativity_on_random_elements():
    rng = random.Random(31)
    sig = Signature.cl(3, 3)
    for _ in range(15):
        a = _random_element(rng, sig)
        b = _random_element(rng, sig)
        c = _random_element(rng, sig)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_parity_of_elements():
    sig = Signature.cl(2)
    e1, e2 = (CliffordElement.generator(sig, l) for l in sig.labels)
    assert e1.parity() == 1
    assert (e1 * e2).parity() == 0
    assert CliffordElement.one(sig).parity() == 0
    assert (e1 + e1 * e2).parity() is None


def test_grading_operator_is_algebra_involution():
    rng = random.Random(37)
    sig = Signature.cl(2, 2)
    for _ in range(10):
        a = _random_element(rng, sig)
        b = _random_element(rng, sig)
        assert grading_operator_action(a * b) == grading_operator_action(
            a
        ) * grading_operator_action(b)
        assert grading_operator_action(grading_operator_action(a)) == a
    e1 = CliffordElement.generator(sig, "e1")
    assert grading_operator_action(e1) == -e1


# ------------------------------------------------------- graded tensor product


def _monomials(sig):
    labels = sig.labels
    out = []
    for size in range(len(labels) + 1):
        for subset in combinations(labels, size):
            out.append((CliffordElement.monomial(sig, subset), size))
    return out


@pytest.mark.parametrize(
    "sig1,sig2",
    [
        (Signature.cl(1), Signature(["g"], {"g": -1})),
        (Signature.cl(2), Signature.cl(0, 2)),
        (Signature.cl(1, 1), Signature(["g", "h"], {"g": -1, "h": 1})),
    ],
)
def test_graded_tensor_is_algebra_map(sig1, sig2):
    # (a1 x b1)(a2 x b2) = (-1)^{|b1||a2|} (a1 a2 x b1 b2) on monomials
    for (a1, _), (a2, da2) in product(_monomials(sig1), repeat=2):
        for (b1, db1), (b2, _) in product(_monomials(sig2), repeat=2):
            lhs = graded_tensor(a1, b1) * graded_tensor(a2, b2)
            sign = -1 if (db1 * da2) % 2 else 1
            rhs = graded_tensor(a1 * a2, b1 * b2).scale(sign)
            assert lhs == rhs


def test_graded_tensor_units():
    sig1, sig2 = Signature.cl(1), Signature.cl(0, 1)
    one = graded_tensor(CliffordElement.one(sig1), CliffordElement.one(sig2))
    assert one == CliffordElement.one(sig1.concat(sig2))


def test_tensor_of_cl1_and_clminus1_is_cl11():
    # the generators e x 1 and 1 x f realize the (+1, -1) Clifford pair
    sig1, sig2 = Signature.cl(1), Signature.cl(0, 1)
    e = CliffordElement.generator(sig1, "e1")
    f = CliffordElement.generator(sig2, "f1")
    one1, one2 = CliffordElement.one(sig1), CliffordElement.one(sig2)
    E = graded_tensor(e, one2)
    F = graded_tensor(one1, f)
    sig = sig1.concat(sig2)
    one = CliffordElement.one(sig)
    assert E * E == one
    assert F * F == -one
    assert (E * F + F * E).is_zero()
    # the 16 structure constants of the basis (1, E, F, EF) match Cl(1,1);
    # both algebras carry the same labels, so coefficients compare directly
    direct = Signature.cl(1, 1)
    de = CliffordElement.generator(direct, "e1")
    df = CliffordElement.generator(direct, "f1")
    basis_t = [one, E, F, E * F]
    basis_d = [CliffordElement.one(direct), de, df, de * df]
    subsets = [(), ("e1",), ("f1",), ("e1", "f1")]
    for i in range(4):
        for j in range(4):
            prod_t = basis_t[i] * basis_t[j]
            prod_d = basis_d[i] * basis_d[j]
            for s in subsets:
                assert prod_t.coefficient(s) == prod_d.coefficient(s)


# ---------------------------------------------------------------- matrices


def test_supermatrix_parity_bookkeeping():
    ident = SuperMatrix.identity(1, 1)
    plus, minus = cl11_rep()
    assert plus.parity == "odd"
    assert (plus * minus).parity == "even"
    with pytest.raises(ValueError):
        plus + ident  # parity mismatch
    assert (plus * minus) + ident == ident + (plus * minus)


def test_cl11_rep_is_the_grading_pair():
    plus, minus = cl11_rep()
    prod = plus * minus
    assert prod.entry(0, 0) == GaussianRational.one()
    assert prod.entry(1, 1) == -GaussianRational.one()
    assert prod.entry(0, 1) == GaussianRational.zero()
    assert prod.entry(1, 0) == GaussianRational.zero()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_supermodule_relations(n):
    sig = Signature.cl(n, n)
    mats = irreducible_supermodule(sig)
    assert len(mats) == 2 * n
    assert all(m.parity == "odd" for m in mats)
    assert_clifford_relations(
        [int_matrix(m) for m in mats],
        [sig.sign(l) for l in sig.labels],
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_supermodule_is_ungraded_irreducible(n):
    # commutant of the action is 1-dimensional: solve [M, g] = 0 for all g
    mats = [int_matrix(m) for m in irreducible_supermodule(Signature.cl(n, n))]
    k = mats[0].shape[0]
    rows = []
    for g in mats:
        # vec(gM - Mg) = (g x I - I x g^T) vec(M)
        block = np.kron(g, np.eye(k, dtype=np.int64)) - np.kron(
            np.eye(k, dtype=np.int64), g.T
        )
        rows.append(block)
    system = np.vstack(rows)
    assert rational_nullity(system) == 1


def test_signed_perm_agrees_with_its_matrix():
    rng = random.Random(131)
    c, d = majoranas(4)
    gens = [*c.values(), *d.values()]
    for _ in range(30):
        a, b = rng.choice(gens), rng.choice(gens)
        ab = a.after(b)
        assert np.array_equal(ab.to_matrix(), a.to_matrix() @ b.to_matrix())
        assert np.array_equal(negate(a).to_matrix(), -a.to_matrix())
    ident = identity(16).to_matrix()
    assert np.array_equal(ident, np.eye(16, dtype=np.int64))


def test_word_evaluation_matches_the_dense_generators():
    # random words over the 2n generators of (C^{1|1})^{(x) n}, repeats
    # included, against the product of the dense matrices on e_0
    rng = random.Random(137)
    for n in range(1, 5):
        c, d = majoranas(n)
        dense = [m.to_matrix() for v in range(n) for m in (c[v], d[v])]
        for _ in range(40):
            word = [rng.randrange(2 * n) for _ in range(rng.randint(0, 6))]
            column = np.eye(1 << n, dtype=np.int64)[:, 0]
            for g in reversed(word):
                column = dense[g] @ column
            sign, mask = evaluate_on_empty(word)
            assert column.tolist() == [sign * (m == mask) for m in range(1 << n)]


def test_supermodule_rejects_unpaired():
    with pytest.raises(UnpairedSignature):
        irreducible_supermodule(Signature.cl(2, 1))


def test_supermodule_empty_signature():
    assert irreducible_supermodule(Signature.cl(0, 0)) == []
