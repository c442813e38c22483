"""Majorana chain operators, exact spectra, and module structure."""

import pickle
import random
import time
from fractions import Fraction
from itertools import permutations, product
from math import comb

import numpy as np
import pytest

import chain_oracle
from arfbrown import majorana
from arfbrown._dense import majoranas, render
from arfbrown.cli import main
from arfbrown.clifford import Signature, evaluate_on_empty, irreducible_supermodule
from arfbrown.exactla import MOD_PRIMES, modular_nullity, rational_nullity, solve_in_span
from arfbrown.majorana import (
    doubled_hamiltonian,
    epsilon_operator,
    ground_states,
    interval_bimodule_check,
    majorana_operators,
    reference_module,
)
from arfbrown.pin1 import ChainSetup
from arfbrown.errors import HasBoundary


def _all_setups(max_vertices):
    """Every circle and interval with at most max_vertices vertices, both
    orientations."""
    for n in range(1, max_vertices + 1):
        for bits in product((0, 1), repeat=n):
            for orientation in (1, -1):
                yield ChainSetup.circle(bits, orientation)
        if n >= 2:
            for bits in product((0, 1), repeat=n - 1):
                for orientation in (1, -1):
                    yield ChainSetup.interval(bits, orientation)


def _parity_order(n):
    return sorted(range(1 << n), key=lambda m: (m.bit_count() & 1, m))


def _scanned_spectrum(setup):
    """Spectrum and ground parity of the dense 2H by a certified kernel scan.

    The parity blocks of 2H are scanned over every integer candidate lambda
    in [-E, E] of E's parity.  A modular nullity is always >= the rational
    one, and the rational ones sum to the block size because 2H is
    symmetric with all eigenvalues in the candidate list; so a modular
    family with the right total is exact, and any other is rejected.
    """
    n = setup.vertex_count
    edge_count = len(setup.edges)
    candidates = range(-edge_count, edge_count + 1, 2)
    order = _parity_order(n)
    h2 = doubled_hamiltonian(setup)[np.ix_(order, order)]
    half = 1 << (n - 1)
    assert not h2[:half, half:].any() and not h2[half:, :half].any()
    ident = np.eye(half, dtype=np.int64)
    nulls = []
    for block in (h2[:half, :half], h2[half:, half:]):
        for p in MOD_PRIMES:
            found = {
                lam: modular_nullity(block - lam * ident, p) for lam in candidates
            }
            if sum(found.values()) == half:
                break
        else:
            pytest.fail(f"no prime certifies the kernel scan of {setup}")
        nulls.append(found)
    even, odd = nulls
    spectrum = tuple(
        (Fraction(lam, 2), even[lam] + odd[lam])
        for lam in candidates
        if even[lam] + odd[lam]
    )
    lam_min = 2 * spectrum[0][0]
    ground = (even[lam_min] > 0, odd[lam_min] > 0)
    parity = {(True, True): "mixed", (True, False): "even", (False, True): "odd"}
    return spectrum, parity[ground]


def test_closed_form_matches_certified_scan():
    # every setup with n <= 6 in both orientations, and a sample at n = 7, 8
    setups = list(_all_setups(6))
    assert len(setups) == 376
    rng = random.Random(101)
    for n in (7, 7, 7, 8, 8, 8):
        kind = rng.choice(["circle", "interval"])
        bits = [rng.randint(0, 1) for _ in range(n if kind == "circle" else n - 1)]
        setups.append(getattr(ChainSetup, kind)(bits, rng.choice([1, -1])))
    for setup in setups:
        rep = ground_states(setup)
        assert (rep.spectrum(), rep.ground_parity) == _scanned_spectrum(setup), setup


def test_dense_generators_have_the_oracle_signs():
    # the package's running prefix parity against the oracle's popcount
    for n in range(9):
        for ours, theirs in zip(majoranas(n), chain_oracle.majoranas(n)):
            assert sorted(ours) == sorted(theirs) == list(range(n))
            for v in range(n):
                assert np.array_equal(ours[v].target, theirs[v].target), (n, v)
                assert np.array_equal(ours[v].sign, theirs[v].sign), (n, v)


def test_doubled_hamiltonian_is_the_dense_edge_sum():
    for setup in _all_setups(6):
        ops = majorana_operators(setup)
        want = sum(
            (-1) ** bit * (ops[head][0] @ ops[tail][1])
            for tail, head, bit in setup.edges
        )
        assert np.array_equal(doubled_hamiltonian(setup), want), setup


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_supermodule_is_the_reordered_majorana_operators(n):
    ops = majorana_operators(ChainSetup.circle((0,) * n))
    order = _parity_order(n)
    want = [ops[v][0] for v in range(n)] + [ops[v][1] for v in range(n)]
    got = irreducible_supermodule(Signature.cl(n, n))
    assert len(got) == len(want)
    for module_mat, mat in zip(got, want):
        rows = [list(row) for row in module_mat.rows()]
        assert rows == mat[np.ix_(order, order)].tolist()


def _boundary_words(setup):
    """c at the vertex that heads no edge and d at the one that tails none,
    as generator words."""
    n = setup.vertex_count
    (c_vertex,) = set(range(n)) - {head for _, head, _ in setup.edges}
    (d_vertex,) = set(range(n)) - {tail for tail, _, _ in setup.edges}
    return [2 * c_vertex], [2 * d_vertex + 1]


def _restrict(setup, word):
    words = majorana._edge_words(setup)
    return majorana._restrict(words, {g for _, w in words for g in w}, word)


def _assert_matches_dense_oracle(setup):
    report, _ = chain_oracle.ground_data(setup)
    assert ground_states(setup) == report, setup
    assert ground_states(setup).spectrum() == chain_oracle.spectrum(setup), setup
    if setup.is_circle:
        return
    interval, c_r, d_r = chain_oracle.bimodule_report(setup)
    assert interval_bimodule_check(setup) == interval, setup
    c_word, d_word = _boundary_words(setup)
    assert _restrict(setup, c_word) == c_r.tolist(), setup
    assert _restrict(setup, d_word) == d_r.tolist(), setup


def test_symbolic_path_matches_dense_oracle():
    setups = list(_all_setups(8))
    assert len(setups) == 1528
    rng = random.Random(103)
    for n in (9, 9, 9, 9, 10, 10, 10, 10):
        for kind, edges in (("circle", n), ("interval", n - 1)):
            bits = [rng.randint(0, 1) for _ in range(edges)]
            setups.append(getattr(ChainSetup, kind)(bits, rng.choice([1, -1])))
    for setup in setups:
        _assert_matches_dense_oracle(setup)


def test_spectrum_matches_the_oracle_up_to_twelve_vertices():
    rng = random.Random(109)
    for n in range(1, 13):
        for kind, edges in (("circle", n), ("interval", n - 1)):
            if not edges:
                continue
            bits = [rng.randint(0, 1) for _ in range(edges)]
            setup = getattr(ChainSetup, kind)(bits, rng.choice([1, -1]))
            report = ground_states(setup)
            assert report.spectrum() == chain_oracle.spectrum(setup), setup
            assert list(report.doubled_spectrum()) == [
                (int(2 * eig), mult) for eig, mult in report.spectrum()
            ]


def test_a_large_report_pickles_to_its_three_fields():
    rng = random.Random(113)
    bits = [rng.randint(0, 1) for _ in range(2 * 10**4)]
    report = ground_states(ChainSetup.circle(bits))
    data = pickle.dumps(report)
    assert len(data) < 300
    assert pickle.loads(data) == report == (2 * 10**4, 2 * 10**4, report.ground_parity)


@pytest.mark.parametrize("kind", ["circle", "interval"])
def test_ten_thousand_vertices_in_under_a_second(kind):
    n = 10**4
    rng = random.Random(107)
    bits = [rng.randint(0, 1) for _ in range(n if kind == "circle" else n - 1)]
    setup = getattr(ChainSetup, kind)(bits)
    start = time.perf_counter()
    if kind == "circle":
        report = ground_states(setup)
    else:
        assert interval_bimodule_check(setup).passed
        report = ground_states(setup)
    assert time.perf_counter() - start < 1.0
    assert sum(mult for _, mult in report.spectrum()) == 1 << n
    assert report.ground_parity == (
        "mixed" if kind == "interval" else "even" if sum(bits) % 2 else "odd"
    )


_edge_terms = majorana._edge_terms


def _flip_one_sign(setup):
    # d_tail -> c_tail flips the sign of one generator's square, so the
    # first term becomes c_head c_tail, which squares to -1
    terms = _edge_terms(setup)
    sign, (head, tail) = terms[0]
    terms[0] = (sign, [head, tail ^ 1])
    return terms


def _shared_generator(setup):
    terms = _edge_terms(setup)
    return terms + terms[:1]


def _missing_generator(setup):
    return _edge_terms(setup)[:-1]


_BROKEN_TERMS = [
    (_flip_one_sign, 3, "square"),
    (lambda setup: _edge_terms(setup) + [(1, [0])], 3, "commute"),
    pytest.param(
        _shared_generator, 3, "share a Majorana generator", id="shared-generator"
    ),
    pytest.param(
        _missing_generator, 3, "moves the empty subset", id="missing-generator"
    ),
]


@pytest.mark.parametrize("corrupt, n, message", _BROKEN_TERMS)
def test_runtime_certificates_reject_broken_terms(monkeypatch, corrupt, n, message):
    monkeypatch.setattr(majorana, "_edge_terms", corrupt)
    with pytest.raises(ArithmeticError, match=message):
        ground_states(ChainSetup.circle((0,) + (1,) * (n - 1)))


@pytest.mark.parametrize("fmt", ["human", "structured"])
@pytest.mark.parametrize("corrupt, n, message", _BROKEN_TERMS)
def test_failed_certificate_exits_5_with_a_message(
    monkeypatch, tmp_path, capsys, corrupt, n, message, fmt
):
    path = tmp_path / "c.surf"
    path.write_text(f"circle c: {' '.join(['0'] + ['1'] * (n - 1))}\n")
    monkeypatch.setattr(majorana, "_edge_terms", corrupt)
    assert main(["majorana", "--format", fmt, str(path)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_single_vertex_frozen_matrices():
    setup = ChainSetup.circle((0,))
    c, d = majorana_operators(setup)[0]
    assert c.tolist() == [[0, 1], [1, 0]]
    assert d.tolist() == [[0, -1], [1, 0]]
    assert doubled_hamiltonian(setup).tolist() == [[1, 0], [0, -1]]
    flipped = ChainSetup.circle((1,))
    assert doubled_hamiltonian(flipped).tolist() == [[-1, 0], [0, 1]]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_majorana_clifford_relations(n):
    ops = majorana_operators(ChainSetup.circle((0,) * n))
    ident = np.eye(1 << n, dtype=np.int64)
    gens = [(ops[v][0], 1) for v in range(n)] + [(ops[v][1], -1) for v in range(n)]
    for i, (g, sign) in enumerate(gens):
        assert np.array_equal(g @ g, sign * ident)
        for h, _ in gens[i + 1 :]:
            assert np.array_equal(g @ h, -(h @ g))


def test_operators_do_not_depend_on_bits():
    a = majorana_operators(ChainSetup.circle((0, 0, 0)))
    b = majorana_operators(ChainSetup.circle((1, 0, 1)))
    for v in range(3):
        assert np.array_equal(a[v][0], b[v][0])
        assert np.array_equal(a[v][1], b[v][1])


def test_doubled_hamiltonian_is_symmetric_integer():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 6)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        kind = rng.choice(["circle", "interval"])
        orient = rng.choice([1, -1])
        setup = (
            ChainSetup.circle(bits, orient)
            if kind == "circle"
            else ChainSetup.interval(bits, orient)
        )
        h2 = doubled_hamiltonian(setup)
        assert h2.dtype == np.int64
        assert np.array_equal(h2, h2.T)


def test_spectrum_multiplicities_binomial_oracle():
    # independent route: the edge terms commute, so the multiplicity of the
    # doubled eigenvalue lam is 2^(n-E) * C(E, (E+lam)/2), whatever the bits
    rng = random.Random(71)
    cases = []
    for n in range(1, 6):
        cases.append((n, tuple(rng.randint(0, 1) for _ in range(n)), True))
        cases.append((n, tuple(rng.randint(0, 1) for _ in range(max(1, n - 1))), False))
    cases.append((7, tuple(rng.randint(0, 1) for _ in range(7)), True))
    for n, bits, is_circle in cases:
        setup = (
            ChainSetup.circle(bits) if is_circle else ChainSetup.interval(bits)
        )
        n_v = setup.vertex_count
        e = len(bits)
        rep = ground_states(setup)
        got = {eig: mult for eig, mult in rep.spectrum()}
        want = {}
        for k in range(e + 1):
            lam = 2 * k - e
            want[Fraction(lam, 2)] = (1 << (n_v - e)) * comb(e, k)
        assert got == want


def test_spectrum_is_symmetric_and_complete():
    rng = random.Random(73)
    for _ in range(10):
        n = rng.randint(1, 6)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        rep = ground_states(ChainSetup.circle(bits))
        total = sum(m for _, m in rep.spectrum())
        assert total == 1 << n
        table = dict(rep.spectrum())
        for eig, mult in rep.spectrum():
            assert table[-eig] == mult
        assert rep.min_eigenvalue == min(table)
        assert rep.ground_dimension == table[rep.min_eigenvalue]


@pytest.mark.parametrize("orientation", [1, -1])
def test_circle_ground_space_exhaustive(orientation):
    for n in range(1, 5):
        for bits in product((0, 1), repeat=n):
            rep = ground_states(ChainSetup.circle(bits, orientation))
            m = sum(bits)
            assert rep.ground_dimension == 1
            assert rep.ground_parity == ("even" if m % 2 else "odd")
            assert rep.min_eigenvalue == Fraction(-n, 2)


def test_interval_ground_space_exhaustive():
    for e in range(1, 4):
        for bits in product((0, 1), repeat=e):
            for orientation in (1, -1):
                rep = ground_states(ChainSetup.interval(bits, orientation))
                assert rep.ground_dimension == 2
                assert rep.ground_parity == "mixed"
                assert rep.min_eigenvalue == Fraction(-e, 2)


def test_interval_bimodule_check_exhaustive_small():
    for e in range(1, 9):
        for bits in product((0, 1), repeat=e):
            for orientation in (1, -1):
                rep = interval_bimodule_check(
                    ChainSetup.interval(bits, orientation)
                )
                assert rep.passed
                assert rep.ground_dimension == 2
                assert rep.parity_split == (1, 1)
                assert rep.boundary_commutes
                assert rep.plus_squares_to_identity
                assert rep.minus_squares_to_minus_identity
                assert rep.generators_anticommute
                assert rep.commutant_dimension == 1
                assert rep.irreducible


def _restrict_by_elimination(op, vectors):
    """The matrix of op on span(vectors) by Fraction elimination over all
    2^n rows, one column at a time."""
    basis = [vec.tolist() for vec in vectors]
    cols = []
    for vec in vectors:
        coeffs = solve_in_span(basis, chain_oracle.apply(op, vec).tolist())
        assert coeffs is not None
        cols.append(coeffs)
    return [list(row) for row in zip(*cols)]


def test_restriction_matches_elimination_oracle():
    count = 0
    for e in range(1, 7):
        for bits in product((0, 1), repeat=e):
            for orientation in (1, -1):
                setup = ChainSetup.interval(bits, orientation)
                _, vectors = chain_oracle.ground_data(setup)
                assert list(vectors) == [0, 1]
                ops = chain_oracle.boundary_operators(setup)
                for word, op in zip(_boundary_words(setup), ops):
                    got = _restrict(setup, word)
                    want = _restrict_by_elimination(op, list(vectors.values()))
                    assert got == want, setup
                    count += 1
    assert count == 2 * 2 * (2**7 - 2)


def test_restriction_rejects_an_operator_that_moves_the_ground_space():
    # an interior vertex heads one edge, and its c_v anticommutes with that
    # edge's term +-c_v d_tail, so it maps the ground space onto excited states
    for orientation in (1, -1):
        setup = ChainSetup.interval((0, 1, 1), orientation)
        _, vectors = chain_oracle.ground_data(setup)
        c, _ = chain_oracle.majoranas(setup.vertex_count)
        for v in (1, 2):
            with pytest.raises(ArithmeticError, match="ground space"):
                _restrict(setup, [2 * v])
            with pytest.raises(ArithmeticError, match="ground space"):
                chain_oracle.restrict(c[v], vectors)
        # the product of both boundary Majoranas is even: it keeps each
        # ground line, so no edge set carries the other line onto its image
        c_word, d_word = _boundary_words(setup)
        with pytest.raises(ArithmeticError, match="no edge set"):
            _restrict(setup, c_word + d_word)


def test_commutant_dimension_of_small_systems():
    ident, jordan, diag = [[1, 0], [0, 1]], [[1, 1], [0, 1]], [[1, 0], [0, 2]]
    assert majorana._commutant_dimension([ident]) == 4
    assert majorana._commutant_dimension([jordan]) == 2
    assert majorana._commutant_dimension([diag]) == 2
    assert majorana._commutant_dimension([jordan, diag]) == 1
    assert majorana._commutant_dimension([[[0, 1], [1, 0]], [[0, -1], [1, 0]]]) == 1
    # these generate all 2x2 matrices, so only the scalars commute with them
    gens = [[[2, 1], [2, -1]], [[0, 0], [2, 1]], [[2, 1], [2, -2]]]
    assert majorana._commutant_dimension(gens) == 1


def _commutant_system(gens):
    """The 8 x 4 (for two generators) integer system whose nullity is the
    commutant dimension: with row-major vec, vec(GM - MG) = (G (x) I -
    I (x) G^T) vec(M)."""
    pairs = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return [[g[i][k] * (j == l) - (i == k) * g[l][j] for k, l in pairs]
            for g in gens for i, j in pairs]


def test_commutant_closed_form_matches_the_nullity_of_the_linear_system():
    matrices = [[[a, b], [c, d]] for a, b, c, d in product((-1, 0, 1, 2), repeat=4)]
    sets = [[m] for m in matrices] + [list(p) for p in product(matrices, repeat=2)]
    rng = random.Random(89)
    sets += [[rng.choice(matrices) for _ in range(3)] for _ in range(5000)]
    seen = set()
    for gens in sets:
        dim = majorana._commutant_dimension(gens)
        assert dim == rational_nullity(_commutant_system(gens)), gens
        seen.add(dim)
    assert seen == {1, 2, 4}


def test_bimodule_check_rejects_circles():
    with pytest.raises(ValueError):
        interval_bimodule_check(ChainSetup.circle((0, 0)))


def test_epsilon_profile_on_subsets():
    for n in range(1, 6):
        eps = epsilon_operator(ChainSetup.circle((0,) * n))
        assert np.array_equal(eps, np.diag(np.diag(eps)))
        for mask in range(1 << n):
            k = bin(mask).count("1")
            assert eps[mask, mask] == (-1) ** (n - k)


def test_epsilon_is_order_independent():
    # every order of the d_v c_v pairs acts alike on every subset (the
    # subset m is the +1 generators of m on the empty one), and the word
    # renders to epsilon_operator
    rng = random.Random(79)
    for n in range(1, 7):
        word = majorana._epsilon_word(n)
        pairs = [word[i : i + 2] for i in range(0, 2 * n, 2)]
        columns = [[2 * v for v in range(n) if m >> v & 1] for m in range(1 << n)]
        base = [evaluate_on_empty([*word, *column]) for column in columns]
        for order in permutations(pairs):
            shuffled = [g for pair in order for g in pair]
            assert [evaluate_on_empty([*shuffled, *col]) for col in columns] == base
        setup = ChainSetup.circle(tuple(rng.randint(0, 1) for _ in range(n)))
        rendered = render(word, *majoranas(n)).to_matrix()
        assert np.array_equal(rendered, epsilon_operator(setup))


def test_epsilon_commutes_with_hamiltonian():
    rng = random.Random(83)
    for _ in range(10):
        n = rng.randint(1, 6)
        setup = ChainSetup.circle(
            tuple(rng.randint(0, 1) for _ in range(n)),
            rng.choice([1, -1]),
        )
        eps = epsilon_operator(setup)
        h2 = doubled_hamiltonian(setup)
        assert np.array_equal(eps @ h2, h2 @ eps)


def test_epsilon_rejects_intervals():
    with pytest.raises(HasBoundary):
        epsilon_operator(ChainSetup.interval((0,)))


def test_reference_module_relations_and_spectrum():
    rng = random.Random(89)
    for _ in range(12):
        n = rng.randint(1, 5)
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        setup = ChainSetup.circle(bits, rng.choice([1, -1]))
        ref = reference_module(setup)
        dim = 1 << n
        ident = np.eye(dim, dtype=np.int64)
        gens = [(ref.c[v], 1) for v in range(n)] + [(ref.d[v], -1) for v in range(n)]
        for i, (g, sign) in enumerate(gens):
            assert np.array_equal(g @ g, sign * ident)
            for h, _ in gens[i + 1 :]:
                assert np.array_equal(g @ h, -(h @ g))
        # both modules carry the same Hamiltonian spectrum
        h2a = ref.doubled_hamiltonian
        assert np.array_equal(h2a, np.diag(np.diag(h2a)))
        spec_a = sorted(int(x) for x in np.diag(h2a))
        rep = ground_states(setup)
        spec_h = sorted(
            int(2 * eig) for eig, mult in rep.spectrum() for _ in range(mult)
        )
        assert spec_a == spec_h


def test_reference_module_epsilon_profile():
    rng = random.Random(97)
    for n in range(1, 6):
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        ref = reference_module(ChainSetup.circle(bits))
        for mask in range(1 << n):
            k = bin(mask).count("1")
            assert ref.epsilon[mask, mask] == (-1) ** (k - 1)


def test_reference_module_ground_state_correspondence():
    # the diagonal module has a unique ground vector, at the edge subset
    # complementary to the bits; the epsilon eigenvalues of the two ground
    # spaces agree, while the parity labels differ by the shift n-1
    for n in range(1, 5):
        for bits in product((0, 1), repeat=n):
            setup = ChainSetup.circle(bits)
            ref = reference_module(setup)
            diag = np.diag(ref.doubled_hamiltonian)
            ground_masks = np.nonzero(diag == diag.min())[0]
            assert len(ground_masks) == 1
            mask = int(ground_masks[0])
            assert mask == sum((1 - b) << i for i, b in enumerate(bits))
            eps_a = int(ref.epsilon[mask, mask])
            rep = ground_states(setup)
            eps_h = (-1) ** n * (1 if rep.ground_parity == "even" else -1)
            assert eps_h == eps_a
            k = bin(mask).count("1")
            shifted = "even" if (k + n - 1) % 2 == 0 else "odd"
            assert rep.ground_parity == shifted


def test_reference_module_rejects_intervals():
    with pytest.raises(HasBoundary):
        reference_module(ChainSetup.interval((0, 1)))


def test_setup_validation():
    with pytest.raises(ValueError):
        ChainSetup.circle((0,), orientation=2)
    with pytest.raises(ValueError):
        ChainSetup.circle(())
    with pytest.raises(ValueError):
        ChainSetup.interval((0, 1), orientation=0)
    with pytest.raises(TypeError):
        ChainSetup.circle((0, 0.5))
