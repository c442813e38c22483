"""Bitset linear algebra over GF(2)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.f2 import (
    Degenerate,
    F2Matrix,
    F2Vector,
    NotAlternating,
    OddDimension,
    json_rows,
    rank,
    symplectic_basis,
)


def test_vector_construction_and_mask():
    v = F2Vector([1, 0, 1, 1])
    assert v.bits == (1, 0, 1, 1)
    assert v.mask == 0b1101
    assert len(v) == 4
    assert v[0] == 1 and v[1] == 0
    assert F2Vector.from_mask(v.mask, 4) == v


def _shifted(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _check_bits(v: F2Vector, mask: int, n: int) -> None:
    want = _shifted(mask, n)
    assert v.bits == want and tuple(v) == want
    assert repr(v) == f"F2Vector([{', '.join(str(b) for b in want)}])"


def test_bits_agree_with_the_per_bit_shift():
    # every mask of length n <= 10, also with junk above bit n
    for n in range(11):
        for mask in range(1 << n):
            _check_bits(F2Vector.from_mask(mask, n), mask, n)
            _check_bits(F2Vector.from_mask(mask | 0b101 << n, n), mask, n)
            _check_bits(F2Vector(_shifted(mask, n)), mask, n)
    assert F2Vector([]).bits == () and repr(F2Vector([])) == "F2Vector([])"


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 200).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n + 8)) - 1))
))
def test_bits_agree_with_the_per_bit_shift_up_to_200(case):
    n, mask = case
    _check_bits(F2Vector.from_mask(mask, n), mask, n)
    _check_bits(F2Vector(_shifted(mask, n)), mask, n)
    rows = [F2Vector.from_mask(mask >> k, n) for k in range(3)]
    matrix = F2Matrix(rows, ncols=n)
    want = [list(_shifted(mask >> k, n)) for k in range(3)]
    assert matrix.to_lists() == want
    assert repr(matrix) == f"F2Matrix({want})"


def _json_reference(masks, n):
    rows = F2Matrix([F2Vector.from_mask(m, n) for m in masks], ncols=n)
    return json.dumps(rows.to_lists(), separators=(",", ":"))


def test_json_rows_is_the_compact_dump_of_the_lists():
    rng = random.Random(12)
    for n in (0, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65):
        for nrows in (0, 1, 2, n):
            # junk above bit n must not show
            masks = [rng.getrandbits(n + 9) for _ in range(nrows)]
            assert json_rows(masks, n) == _json_reference(masks, n)
            assert json.loads(json_rows(masks, n)) == [
                list(_shifted(m, n)) for m in masks
            ]
    assert json_rows([], 5) == "[]" and json_rows([0, 3], 0) == "[[],[]]"


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(0, 300).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << (n + 8)) - 1), max_size=12),
    )
))
def test_json_rows_agrees_with_to_lists_up_to_300(case):
    n, masks = case
    assert json_rows(masks, n) == _json_reference(masks, n)


def test_vector_addition_is_xor():
    a = F2Vector([1, 1, 0])
    b = F2Vector([0, 1, 1])
    assert (a + b).bits == (1, 0, 1)
    assert (a + a).is_zero()


def test_vector_dot_and_weight():
    a = F2Vector([1, 1, 0, 1])
    b = F2Vector([1, 0, 1, 1])
    assert a.dot(b) == (1 + 0 + 0 + 1) % 2
    assert a.weight() == 3


def test_zero_and_basis_vectors():
    z = F2Vector.zero(5)
    assert z.is_zero() and len(z) == 5
    e2 = F2Vector.basis_vector(5, 2)
    assert e2.bits == (0, 0, 1, 0, 0)


def test_matrix_identity_rank():
    m = F2Matrix.identity(6)
    assert rank(m) == 6


def test_matrix_transpose_and_entry():
    m = F2Matrix([[1, 0, 1], [0, 1, 1]])
    t = m.transpose()
    assert t.nrows == 3 and t.ncols == 2
    assert all(m.entry(i, j) == t.entry(j, i) for i in range(2) for j in range(3))


def test_matrix_vector_product():
    m = F2Matrix([[1, 1, 0], [0, 1, 1]])
    v = F2Vector([1, 1, 1])
    assert m.mv(v).bits == (0, 0)


def test_kernel_members_are_killed():
    # the kernel, counted by brute force over all 2^ncols vectors, has
    # 2^(ncols - rank) members
    rng = random.Random(7)
    for _ in range(50):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = F2Matrix(
            [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)],
            ncols=ncols,
        )
        killed = sum(
            m.mv(F2Vector.from_mask(mask, ncols)).is_zero()
            for mask in range(1 << ncols)
        )
        assert killed == 1 << (ncols - rank(m))


def test_symplectic_basis_torus():
    gram = F2Matrix([[0, 1], [1, 0]])
    pairs = symplectic_basis(gram)
    assert len(pairs) == 1
    e, f = pairs[0]
    assert e.dot(gram.mv(f)) == 1
    assert e.dot(gram.mv(e)) == 0
    assert f.dot(gram.mv(f)) == 0


def test_symplectic_basis_random_alternating():
    rng = random.Random(11)
    for _ in range(25):
        g = rng.randint(1, 4)
        # random change of basis applied to the standard symplectic gram
        n = 2 * g
        std = [[0] * n for _ in range(n)]
        for k in range(g):
            std[2 * k][2 * k + 1] = 1
            std[2 * k + 1][2 * k] = 1
        while True:
            p = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
            if rank(F2Matrix(p)) == n:
                break
        gram_lists = [
            [
                sum(p[i][a] * std[a][b] * p[j][b] for a in range(n) for b in range(n)) % 2
                for j in range(n)
            ]
            for i in range(n)
        ]
        gram = F2Matrix(gram_lists)
        pairs = symplectic_basis(gram)
        assert len(pairs) == g
        vecs = [v for pair in pairs for v in pair]
        assert rank(F2Matrix(vecs, ncols=n)) == n
        for a, (e, f) in enumerate(pairs):
            assert e.dot(gram.mv(f)) == 1
            for b, (e2, f2) in enumerate(pairs):
                if a != b:
                    assert e.dot(gram.mv(e2)) == 0
                    assert e.dot(gram.mv(f2)) == 0
                    assert f.dot(gram.mv(f2)) == 0


def test_symplectic_basis_rejects_nonalternating():
    with pytest.raises(NotAlternating):
        symplectic_basis(F2Matrix([[1, 0], [0, 1]]))


def test_symplectic_basis_rejects_degenerate():
    with pytest.raises(Degenerate):
        symplectic_basis(F2Matrix([[0, 0], [0, 0]]))


def test_symplectic_basis_rejects_odd_dimension():
    with pytest.raises(OddDimension):
        symplectic_basis(F2Matrix([[0]]))


def test_empty_symplectic_basis():
    assert symplectic_basis(F2Matrix([], ncols=0)) == []
