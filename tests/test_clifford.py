"""Gaussian rationals, signatures, supermatrices, the irreducible
supermodule, and the word evaluation on (C^{1|1})^{(x) n}."""

import random
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.clifford import (
    GaussianRational,
    Signature,
    SuperMatrix,
    UnpairedSignature,
    evaluate_on_empty,
    irreducible_supermodule,
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
    assert a - a == GaussianRational(0)


def test_gaussian_i_squares_to_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert i**4 == GaussianRational(1)
    assert i**-1 == -i


def test_gaussian_coerce_and_equality():
    assert GaussianRational.coerce(2) == GaussianRational(2)
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(7) == 7
    assert GaussianRational(0, 1) != 0


def test_gaussian_parts_are_exact():
    with pytest.raises(TypeError):
        GaussianRational(0.1)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)


def test_gaussian_inverse_of_zero_fails():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(0).inverse()


# ---------------------------------------------------------------- signatures


def test_cl_signature_layout():
    sig = Signature.cl(2, 1)
    assert sig.labels == ("e1", "e2", "f1")
    assert sig.sign("e2") == 1 and sig.sign("f1") == -1
    assert sig.positive_labels() == ("e1", "e2")
    assert sig.negative_labels() == ("f1",)
    assert [sig.sign(l) for l in sig.labels] == [1, 1, -1]
    assert (sig.positive, sig.negative, len(sig)) == (2, 1, 3)
    assert sig == Signature.cl(2, 1) and hash(sig) == hash(Signature.cl(2, 1))
    assert sig != Signature.cl(1, 2) and sig != Signature.cl(3)
    with pytest.raises(ValueError):
        sig.sign("f2")
    for counts in [(-1,), (1, -2)]:
        with pytest.raises(ValueError):
            Signature.cl(*counts)


# ---------------------------------------------------------------- matrices


@pytest.mark.parametrize(
    "parity, cells",
    [
        ("even", [(1, 4), (3, 0)]),  # even row, odd column; odd row, even column
        ("odd", [(1, 1), (4, 2)]),  # the two diagonal blocks
    ],
)
def test_supermatrix_names_the_first_entry_outside_the_blocks(parity, cells):
    # C^{2|3}, every allowed entry nonzero
    even = parity == "even"
    allowed = [
        [Fraction(i + 1, j + 2) if ((i < 2) == (j < 2)) == even else 0
         for j in range(5)]
        for i in range(5)
    ]
    SuperMatrix(2, 3, allowed, parity)
    for bad in (cells[:1], cells[1:], cells):
        rows = [list(row) for row in allowed]
        for i, j in bad:
            rows[i][j] = GaussianRational(0, 1)
        i, j = bad[0]
        message = rf"entry \({i},{j}\) lies outside the {parity} blocks"
        with pytest.raises(ValueError, match=message):
            SuperMatrix(2, 3, rows, parity)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_pairs_multiply_to_the_grading_operator(n):
    # e1 f1 e2 f2 ... en fn is diag(+1 on the even half, -1 on the odd half)
    sig = Signature.cl(n, n)
    mats = dict(zip(sig.labels, map(int_matrix, irreducible_supermodule(sig))))
    grading = np.eye(1 << n, dtype=np.int64)
    for k in range(1, n + 1):
        grading = grading @ mats[f"e{k}"] @ mats[f"f{k}"]
    half = 1 << (n - 1)
    assert np.array_equal(grading, np.diag([1] * half + [-1] * half))


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


@cache
def _dense_generators(n):
    c, d = majoranas(n)
    return [m.to_matrix() for v in range(n) for m in (c[v], d[v])]


@settings(max_examples=300, deadline=None, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(0, 2 * n - 1), max_size=24)
)))
def test_word_evaluation_matches_the_dense_generators(case):
    # words over the 2n generators of (C^{1|1})^{(x) n}, repeats included,
    # against the product of the dense matrices on e_0
    n, word = case
    column = np.eye(1 << n, dtype=np.int64)[:, 0]
    for g in reversed(word):
        column = _dense_generators(n)[g] @ column
    sign, mask = evaluate_on_empty(word)
    assert column.tolist() == [sign * (m == mask) for m in range(1 << n)]


def test_supermodule_rejects_unpaired():
    with pytest.raises(UnpairedSignature):
        irreducible_supermodule(Signature.cl(2, 1))


def test_supermodule_empty_signature():
    assert irreducible_supermodule(Signature.cl(0, 0)) == []
