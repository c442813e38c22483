"""Bitset linear algebra over GF(2)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arfbrown.commands.surface import json_rows
from arfbrown.f2 import (
    Degenerate,
    NotAlternating,
    OddDimension,
    symplectic_basis,
)
from arfbrown.surface import intersection_form, orientable_scheme
from f2_oracle import oracle_symplectic_basis, outcome, rank


def _shifted(mask: int, n: int) -> tuple[int, ...]:
    return tuple((mask >> i) & 1 for i in range(n))


def _mask(bits) -> int:
    return sum(b << i for i, b in enumerate(bits))


def _pairing(rows, u: int, v: int) -> int:
    """u^T G v over GF(2): the popcounts of v against the rows on u's support."""
    return sum((r & v).bit_count() for i, r in enumerate(rows) if u >> i & 1) % 2


def _json_reference(masks, n):
    return json.dumps([list(_shifted(m, n)) for m in masks], separators=(",", ":"))


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


def test_matrix_identity_rank():
    assert rank([1 << i for i in range(6)]) == 6


def test_kernel_members_are_killed():
    # the kernel, counted by brute force over all 2^ncols vectors, has
    # 2^(ncols - rank) members
    rng = random.Random(7)
    for _ in range(50):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = [_mask([rng.randint(0, 1) for _ in range(ncols)]) for _ in range(nrows)]
        killed = sum(
            all((row & mask).bit_count() % 2 == 0 for row in m)
            for mask in range(1 << ncols)
        )
        assert killed == 1 << (ncols - rank(m))


def test_symplectic_basis_torus():
    gram = [0b10, 0b01]
    pairs = symplectic_basis(gram)
    assert len(pairs) == 1
    e, f = pairs[0]
    assert _pairing(gram, e, f) == 1
    assert _pairing(gram, e, e) == 0
    assert _pairing(gram, f, f) == 0


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
            if rank([_mask(row) for row in p]) == n:
                break
        gram_lists = [
            [
                sum(p[i][a] * std[a][b] * p[j][b] for a in range(n) for b in range(n)) % 2
                for j in range(n)
            ]
            for i in range(n)
        ]
        gram = [_mask(row) for row in gram_lists]
        pairs = symplectic_basis(gram)
        assert len(pairs) == g
        vecs = [v for pair in pairs for v in pair]
        assert all(0 <= v < 1 << n for v in vecs)
        assert rank(vecs) == n
        for a, (e, f) in enumerate(pairs):
            assert _pairing(gram, e, f) == 1
            for b, (e2, f2) in enumerate(pairs):
                if a != b:
                    assert _pairing(gram, e, e2) == 0
                    assert _pairing(gram, e, f2) == 0
                    assert _pairing(gram, f, f2) == 0


def test_symplectic_basis_rejects_nonalternating():
    with pytest.raises(NotAlternating):
        symplectic_basis([0b01, 0b10])


def test_symplectic_basis_rejects_degenerate():
    # the second form pairs e0 with e1 before the loop reaches its radical
    for rows in ([0b00, 0b00], [0b0010, 0b0001, 0b0000, 0b0000]):
        with pytest.raises(Degenerate):
            symplectic_basis(rows)


def test_symplectic_basis_rejects_odd_dimension():
    with pytest.raises(OddDimension):
        symplectic_basis([0b0])


def test_symplectic_basis_rejects_rows_that_are_not_square_and_symmetric():
    for rows in (
        # a bit at or above the dimension, or a negative row, whose bits run on
        [0b10, 0b101], [0b110, 0b001], [0b10, -0b11],
        # asymmetric rows
        [0b10, 0b00], [0b110, 0b101, 0b000], [0b0010, 0b0001, 0b1000, 0b0000],
    ):
        with pytest.raises(ValueError, match="square and symmetric"):
            symplectic_basis(rows)


def test_empty_symplectic_basis():
    assert symplectic_basis([]) == []


def _alternating(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def _assert_as_oracle(rows):
    want = outcome(oracle_symplectic_basis, rows)
    assert outcome(symplectic_basis, rows) == want, rows
    return want


def test_symplectic_basis_is_the_oracle_on_every_alternating_form_to_6():
    for n in range(7):
        slots = [(i, j) for i in range(n) for j in range(i)]
        for bits in range(1 << len(slots)):
            rows = [0] * n
            for k, (i, j) in enumerate(slots):
                if bits >> k & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            _assert_as_oracle(rows)


def test_symplectic_basis_is_the_oracle_on_random_forms_to_40():
    rng = random.Random(24)
    found = set()
    for _ in range(600):
        n = rng.randint(0, 40)
        rows = _alternating(rng, n)
        if rng.random() < 0.2 and n:
            # a random row and column: asymmetric, or a diagonal bit
            i, j = rng.randrange(n), rng.randrange(n)
            rows[i] ^= 1 << j
        want = _assert_as_oracle(rows)
        found.add(want if isinstance(want, type) else list)
    assert found == {list, ValueError, NotAlternating, OddDimension, Degenerate}


def test_symplectic_basis_is_the_oracle_on_canonical_forms_to_genus_12():
    for genus in range(13):
        rows = intersection_form(orientable_scheme(genus)).rows
        assert len(_assert_as_oracle(rows)) == genus
