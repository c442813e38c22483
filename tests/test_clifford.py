"""Gaussian rationals, signatures, supermatrices, the irreducible
supermodule, and the word evaluation on (C^{1|1})^{(x) n}."""

import random
from itertools import product
from fractions import Fraction
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.clifford import (
    SMALL_GENERATORS,
    GaussianRational,
    Signature,
    SuperMatrix,
    UnpairedSignature,
    evaluate_on_empty,
    irreducible_supermodule,
)
import chain_oracle
from arfbrown import _dense
from arfbrown.exactla import rational_nullity
from chain_oracle import identity, negate
from clifford_checks import assert_clifford_relations, int_matrix


# ------------------------------------------------------- Gaussian rationals


def test_gaussian_field_operations():
    a = GaussianRational(Fraction(1, 2), Fraction(3, 4))
    b = GaussianRational(Fraction(-2), Fraction(1, 3))
    assert a * b == GaussianRational(
        Fraction(1, 2) * Fraction(-2) - Fraction(3, 4) * Fraction(1, 3),
        Fraction(1, 2) * Fraction(1, 3) + Fraction(3, 4) * Fraction(-2),
    )
    assert a * b.inverse() * b == a


def test_gaussian_i_squares_to_minus_one():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1)
    assert i**4 == GaussianRational(1)
    assert i**-1 == GaussianRational(0, -1)


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
    assert (sig.positive, sig.negative, len(sig)) == (2, 1, 3)
    assert sig == Signature.cl(2, 1) and hash(sig) == hash(Signature.cl(2, 1))
    assert sig != Signature.cl(1, 2) and sig != Signature.cl(3)
    for counts in [(-1,), (1, -2)]:
        with pytest.raises(ValueError):
            Signature.cl(*counts)


def test_signature_counts_are_read_only():
    sig = Signature(2, 1)
    for name in ("positive", "negative"):
        with pytest.raises(AttributeError):
            setattr(sig, name, 5)
    assert sig == Signature(2, 1) and len(sig) == 3


# ---------------------------------------------------------------- matrices


@pytest.mark.parametrize(
    "block, cells",
    [
        ("even", [(0, 1), (1, 0)]),  # the even diagonal block
        ("odd", [(1, 1), (4, 2)]),  # one cell in each diagonal block
    ],
)
def test_supermatrix_names_the_first_entry_outside_the_blocks(block, cells):
    # an odd matrix on C^{2|3}, every allowed entry nonzero
    allowed = [
        [Fraction(i + 1, j + 2) if (i < 2) != (j < 2) else 0 for j in range(5)]
        for i in range(5)
    ]
    SuperMatrix(2, 3, allowed)
    for bad in (cells[:1], cells[1:], cells):
        rows = [list(row) for row in allowed]
        for i, j in bad:
            rows[i][j] = GaussianRational(0, 1)
        i, j = bad[0]
        message = rf"entry \({i},{j}\) lies outside the odd blocks"
        with pytest.raises(ValueError, match=message):
            SuperMatrix(2, 3, rows)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_supermodule_relations(n):
    mats = irreducible_supermodule(Signature.cl(n, n))
    assert len(mats) == 2 * n
    # the first half of the basis is even: every nonzero entry is odd
    half = 1 << (n - 1)
    assert all(
        z.is_zero() or (i < half) != (j < half)
        for m in mats
        for i, row in enumerate(m.rows())
        for j, z in enumerate(row)
    )
    assert_clifford_relations([int_matrix(m) for m in mats], [1] * n + [-1] * n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_generator_pairs_multiply_to_the_grading_operator(n):
    # e1 f1 e2 f2 ... en fn is diag(+1 on the even half, -1 on the odd half)
    # in signature order: e1..en, then f1..fn
    mats = [int_matrix(m) for m in irreducible_supermodule(Signature.cl(n, n))]
    grading = np.eye(1 << n, dtype=np.int64)
    for k in range(n):
        grading = grading @ mats[k] @ mats[n + k]
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
    for engine in (_dense, chain_oracle):
        c, d = engine.majoranas(4)
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
    # the oracle's generators, whose Koszul signs are not the package's rule
    c, d = chain_oracle.majoranas(n)
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


def _shifted(word, m):
    return [g + 2 * m for g in word]


# a shift by this many factors moves every generator past SMALL_GENERATORS,
# and one by three fewer keeps the words over three factors below it
_PAST = (SMALL_GENERATORS + 1) // 2


@pytest.mark.parametrize("m", [1, _PAST - 3, _PAST, _PAST + 1000])
def test_shifting_by_whole_factors_shifts_the_mask(m):
    # renumbering generator g as g + 2m is the inclusion of the first three
    # factors as factors m, m+1, m+2: it keeps the sign and shifts the mask,
    # whichever path each side takes
    for length in range(7):
        for word in product(range(6), repeat=length):
            sign, mask = evaluate_on_empty(word)
            assert evaluate_on_empty(_shifted(word, m)) == (sign, mask << m), word


@settings(max_examples=300, deadline=None, database=None)
@given(
    st.lists(st.integers(0, 23), max_size=40),
    st.integers(-12, 12),
)
def test_words_on_either_side_of_the_bound_agree(word, offset):
    # the shifted word's largest generator lands within 12 of the bound,
    # above or below it
    m = max(0, (SMALL_GENERATORS + offset - max(word, default=0)) // 2)
    sign, mask = evaluate_on_empty(word)
    assert evaluate_on_empty(_shifted(word, m)) == (sign, mask << m)


def test_a_lone_large_generator_moves_one_factor():
    v = 10**6
    assert evaluate_on_empty([2 * v]) == (1, 1 << v)
    assert evaluate_on_empty([2 * v, 2 * v + 1]) == (1, 0)
    assert evaluate_on_empty([2 * v + 1, 2 * v]) == (-1, 0)
    assert evaluate_on_empty([2 * v + 1, 2 * v + 1]) == (-1, 0)


def test_supermodule_rejects_unpaired():
    with pytest.raises(UnpairedSignature):
        irreducible_supermodule(Signature.cl(2, 1))


def test_supermodule_empty_signature():
    assert irreducible_supermodule(Signature.cl(0, 0)) == []
