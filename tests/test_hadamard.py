import functools
import math
import re

import numpy as np
import pytest
from scipy import linalg as sla

from gspe import (EstimationConfig, PauliString, SpectralData, build_operator,
                  diagonalize, embed_block, estimators)
from gspe.estimators import PreconditionError, estimate_gsprop_commutative
from gspe.hadamard import (SAMPLE_BLOCK, TABLE_KINDS, UNITARY_TOL, BlockEncoding,
                           BlockEncodingError, NotUnitaryError,
                           block_circuit_distribution,
                           block_norm_table, block_success_prob,
                           draw_block_xy, draw_xy_pm1,
                           exact_expectation_1d, exact_expectation_2d,
                           exact_expectation_block, exact_expectation_O,
                           expectation_table_1d, expectation_table_2d,
                           expectation_table_O, generalized_circuit_distribution,
                           generalized_second_moment, generalized_variance,
                           outcome_distribution_1d, outcome_distribution_2d,
                           oracle_tables, outcome_distribution_O, outcome_law,
                           observable, phase_block, require_unitary, sample_blocks,
                           table_states)

from conftest import (dense_from_terms, kron_word, random_hermitian,
                      random_state, random_unitary)


def _dense_expm(h_mat, t):
    return sla.expm(-1j * t * h_mat)


@pytest.fixture(scope="module")
def z_system():
    s = diagonalize(build_operator([(1.0, "Z")]))
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return s, plus


def _xy_mean(dist):
    px, py = dist["X"], dist["Y"]
    return (px[0] - px[1]) + 1j * (py[0] - py[1])


# --- exact targets -----------------------------------------------------------

def test_expectation_identity_time(z_system):
    s, plus = z_system
    assert exact_expectation_1d(s, plus, 0) == pytest.approx(1.0)


@pytest.mark.parametrize("j", [-3, -1, 1, 2, 5])
def test_expectation_z_plus_closed_form(z_system, j):
    # direct 2x2 computation: (e^{-ij pi/3} + e^{ij pi/3}) / 2 = cos(j pi/3)
    s, plus = z_system
    assert exact_expectation_1d(s, plus, j) == pytest.approx(
        math.cos(j * math.pi / 3.0), abs=1e-12)


def test_expectation_conjugate_symmetry(rng):
    s = diagonalize(dense_from_terms([(0.7, "ZZ"), (0.3, "XI"), (0.1, "ZI")]))
    phi = random_state(rng, 4)
    for j in (1, 4, 7):
        assert exact_expectation_1d(s, phi, j) == pytest.approx(
            np.conj(exact_expectation_1d(s, phi, -j)), abs=1e-12)
    assert abs(exact_expectation_1d(s, phi, 9)) <= 1.0 + 1e-12


# --- exhaustive unbiasedness against the dense oracle --------------------------

def _random_instance(rng, n):
    h = random_hermitian(rng, 2 ** n, norm=rng.uniform(0.5, 2.0))
    s = diagonalize(h)
    return h, s, random_state(rng, 2 ** n)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_plain_circuit_unbiased(rng, n):
    h, s, phi = _random_instance(rng, n)
    for j in (-5, -1, 0, 2, 7):
        dist = outcome_distribution_1d(s, phi, j)
        target = phi.conj() @ _dense_expm(h, j * s.tau) @ phi
        assert abs(_xy_mean(dist) - target) <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_observable_circuit_unbiased(rng, n):
    h, s, phi = _random_instance(rng, n)
    o_mat = random_unitary(rng, 2 ** n)
    for j in (-2, 0, 3):
        dist = outcome_distribution_O(s, phi, o_mat, j)
        target = phi.conj() @ o_mat @ _dense_expm(h, j * s.tau) @ phi
        assert abs(_xy_mean(dist) - target) <= 1e-10
        assert abs(exact_expectation_O(s, phi, o_mat, j) - target) <= 1e-10


@pytest.mark.parametrize("n", [1, 2])
def test_two_time_circuit_unbiased(rng, n):
    h, s, phi = _random_instance(rng, n)
    o_mat = random_unitary(rng, 2 ** n)
    for j, j2 in ((0, 0), (1, -2), (-3, 4)):
        dist = outcome_distribution_2d(s, phi, o_mat, j, j2)
        target = phi.conj() @ _dense_expm(h, j * s.tau) @ o_mat \
            @ _dense_expm(h, j2 * s.tau) @ phi
        assert abs(_xy_mean(dist) - target) <= 1e-10
        assert abs(exact_expectation_2d(s, phi, o_mat, j, j2) - target) <= 1e-10


def test_two_time_reduces_to_observable_circuit(rng):
    h, s, phi = _random_instance(rng, 2)
    o_mat = random_unitary(rng, 4)
    # (j, 0) targets <phi| e^{-ij tau H} O |phi>, cross-checked densely
    target = phi.conj() @ _dense_expm(h, 3 * s.tau) @ o_mat @ phi
    assert abs(_xy_mean(outcome_distribution_2d(s, phi, o_mat, 3, 0))
               - target) <= 1e-10


def test_two_time_zero_times_give_observable_mean(rng):
    _, s, phi = _random_instance(rng, 2)
    o_mat = random_unitary(rng, 4)
    assert abs(_xy_mean(outcome_distribution_2d(s, phi, o_mat, 0, 0))
               - phi.conj() @ o_mat @ phi) <= 1e-10


@pytest.mark.parametrize("n", [2, 3])
def test_table_2d_matches_two_time_circuit_everywhere(rng, n):
    _, s, phi = _random_instance(rng, n)
    o_mat = random_unitary(rng, 2 ** n)  # not Hermitian
    assert np.linalg.norm(o_mat - o_mat.conj().T) > 0.1
    d = 4
    table = expectation_table_2d(s, phi, o_mat, d)
    for j in range(-d, d + 1):
        for j2 in range(-d, d + 1):
            circuit = _xy_mean(outcome_distribution_2d(s, phi, o_mat, j, j2))
            assert abs(table[j + d, j2 + d] - circuit) <= 1e-10


def test_commuting_observable_eigen_sum(rng):
    # [H, O] = 0: expectation is sum_k p_k O_k e^{-ij tau lambda_k}
    h = dense_from_terms([(1.0, "ZZ"), (0.25, "ZI")])
    s = diagonalize(h)
    o_diag = rng.choice([-1.0, 1.0], size=4)
    o_mat = s.eigenvectors @ np.diag(o_diag) @ s.eigenvectors.conj().T
    phi = random_state(rng, 4)
    p = np.abs(s.eigenvectors.conj().T @ phi) ** 2
    for j in (0, 2, -5):
        direct = np.sum(p * o_diag * np.exp(-1j * j * s.scaled_eigenvalues))
        assert abs(_xy_mean(outcome_distribution_O(s, phi, o_mat, j))
                   - direct) <= 1e-10


def test_identity_observable_reduces_to_plain(rng):
    _, s, phi = _random_instance(rng, 2)
    for j in (-1, 2):
        a = outcome_distribution_O(s, phi, np.eye(4), j)
        b = outcome_distribution_1d(s, phi, j)
        assert a["X"] == pytest.approx(b["X"], abs=1e-12)
        assert a["Y"] == pytest.approx(b["Y"], abs=1e-12)


def _psd_sqrt(mat):
    w, v = np.linalg.eigh(mat)
    root = (v * np.sqrt(w)) @ v.T
    return 0.5 * (root + root.T)


# symmetric and orthogonal: a 16 x 16 Sylvester-Hadamard matrix over sqrt(16)
_REFLECTION = functools.reduce(np.kron, [np.array([[1.0, 1.0], [1.0, -1.0]])] * 4) / 4.0

# Hermitian signed permutation with +-1 and +-i entries: Y (+) Z (+) X
_SIGNED = sla.block_diag(kron_word("Y"), kron_word("Z"), kron_word("X"))


def _scaled_entry(u, scale):
    """``u`` with its real diagonal entry (2, 2) scaled, still Hermitian."""
    u = u.copy()
    u[2, 2] *= scale
    return u


# name -> (U, 1-norm bound of U^H U - I above UNITARY_TOL, accepted)
UNITARITY_CASES = {
    "exact": (_REFLECTION, False, True),
    # U^H U - I = eps H_16 / 4: 2-norm eps = 5e-11, 1-norm 4 eps = 2e-10
    "bound-only-above-tol": (_psd_sqrt(np.eye(16) + 5e-11 * _REFLECTION), True, True),
    # U^H U - I = 1e-9 I
    "norm-above-tol": (math.sqrt(1.0 + 1e-9) * _REFLECTION, True, False),
    # signed permutations: U^H U is diagonal, holding |m|^2 for each nonzero m
    "signed-permutation": (_SIGNED, False, True),
    # one |m|^2 - 1 = 5e-11
    "signed-permutation-below-tol": (_scaled_entry(_SIGNED, math.sqrt(1.0 + 5e-11)),
                                     False, True),
    # one |m|^2 - 1 = 1e-9
    "signed-permutation-above-tol": (_scaled_entry(_SIGNED, math.sqrt(1.0 + 1e-9)),
                                     True, False),
}


def _gram_deviation(u):
    return u.conj().T @ u - np.eye(u.shape[0])


@pytest.mark.parametrize("case", list(UNITARITY_CASES))
def test_unitarity_decision_table(case):
    u, bound_above, accepted = UNITARITY_CASES[case]
    dev = _gram_deviation(u)
    assert (np.abs(dev).sum(axis=0).max() > UNITARY_TOL) == bound_above
    spectral_dev = np.linalg.norm(dev, 2)
    assert (spectral_dev <= UNITARY_TOL) == accepted
    # the embedding of alpha U has the same kind of Gram deviation; a small
    # alpha keeps ||alpha U|| - alpha inside embed_block's 1e-12 norm slack
    alpha = 1e-3
    if accepted:
        assert require_unitary(u) is u
        b = embed_block(alpha * u, alpha)
        embedded = _gram_deviation(b.unitary)
        assert (np.abs(embedded).sum(axis=0).max() > UNITARY_TOL) == bound_above
        assert np.linalg.norm(embedded, 2) <= UNITARY_TOL
    else:
        message = re.escape(f"{spectral_dev:.3e}")
        with pytest.raises(NotUnitaryError, match=message):
            require_unitary(u)
        with pytest.raises(BlockEncodingError, match=message):
            embed_block(alpha * u, alpha)


def _dilation_cases():
    """(O, alpha): every UNITARITY_CASES matrix as embedded above, then random
    Hermitian O of norm 1 at alpha below, at and above it."""
    for u, _, _ in UNITARITY_CASES.values():
        yield 1e-3 * u, 1e-3
    gen = np.random.default_rng(41)
    for dim in (2, 5, 8):
        o = random_hermitian(gen, dim)
        for alpha in (0.5, 0.99, 1.0 - 5e-13, 1.0, 1.0 + 1e-9, 1.7):
            yield o, alpha


def test_eigenvalue_deviation_equals_dilation_gram():
    """max(0, (||O||_2/alpha)^2 - 1), the deviation embed_block reads off the
    eigenvalues of O, is ||U^H U - I||_2 of the dilation it stands for."""
    for o, alpha in _dilation_cases():
        norm = np.abs(np.linalg.eigvalsh(o)).max()
        dev = max(0.0, (norm / alpha) ** 2 - 1.0)
        gram = _gram_deviation(BlockEncoding(operator=o, alpha=alpha).unitary)
        assert abs(dev - np.linalg.norm(gram, 2)) <= 1e-12
        if norm <= alpha + 1e-12:
            if dev > UNITARY_TOL:
                with pytest.raises(BlockEncodingError,
                                   match=re.escape(f"deviation {dev:.3e}")):
                    embed_block(o, alpha)
            else:
                assert embed_block(o, alpha).alpha == alpha


@pytest.mark.parametrize("alpha", [0, -1.0, math.inf, math.nan, True, "2"])
def test_embed_block_rejects_bad_alpha(alpha):
    with pytest.raises(BlockEncodingError, match="alpha must be a finite number"):
        embed_block(np.diag([0.5, -0.5]), alpha)


def test_signed_permutations_take_the_structured_path():
    for case, (u, _, _) in UNITARITY_CASES.items():
        assert (observable(u).columns is not None) == case.startswith("signed")
    # one nonzero per row, but column 0 holds two and column 1 none
    u = np.zeros((4, 4), dtype=complex)
    u[[0, 1, 2, 3], [0, 0, 2, 3]] = 1.0
    assert observable(u).columns is None
    dev = np.linalg.norm(_gram_deviation(u), 2)
    with pytest.raises(NotUnitaryError, match=re.escape(f"{dev:.3e}")):
        require_unitary(u)


def test_require_unitary_rejects_non_square():
    # an isometry passes U^H U = I; only the shape tells it from a unitary
    with pytest.raises(NotUnitaryError, match="not square"):
        require_unitary(np.eye(4)[:, :2])


def test_observable_must_be_unitary(z_system):
    s, plus = z_system
    with pytest.raises(NotUnitaryError):
        outcome_distribution_O(s, plus, 0.5 * np.eye(2), 1)


# --- sampling laws -------------------------------------------------------------

def test_zero_time_circuit_is_certain(z_system):
    # j = 0 applies no evolution: X = +1 surely, Y = +-1 with equal odds
    s, plus = z_system
    dist = outcome_distribution_1d(s, plus, 0)
    assert dist["X"] == pytest.approx((1.0, 0.0), abs=1e-12)
    assert dist["Y"] == pytest.approx((0.5, 0.5), abs=1e-12)


def test_fast_path_matches_circuit_path(rng):
    h, s, phi = _random_instance(rng, 2)
    for j in (-4, 1, 6):
        e = exact_expectation_1d(s, phi, j)
        dist = outcome_distribution_1d(s, phi, j)
        assert dist["X"][0] == pytest.approx(0.5 * (1 + e.real), abs=1e-12)
        assert dist["Y"][0] == pytest.approx(0.5 * (1 + e.imag), abs=1e-12)


def test_frequency_five_sigma(z_system):
    s, plus = z_system
    n = 10 ** 5
    e = exact_expectation_1d(s, plus, 1)
    zs = draw_block_xy(outcome_law(np.array([e])), np.zeros(n, dtype=int), 1.0,
                       np.random.default_rng(77))
    # Bernoulli variance for X: 1 - (Re e)^2
    sigma = math.sqrt((1.0 - e.real ** 2) / n)
    assert abs(zs.real.mean() - e.real) <= 5 * sigma


@pytest.mark.parametrize("size", sorted({
    0, 1, 65536, 131071, 131072, 196613,  # the block boundaries of 2^16
    SAMPLE_BLOCK, 2 * SAMPLE_BLOCK - 1, 2 * SAMPLE_BLOCK, 3 * SAMPLE_BLOCK + 5}))
def test_sample_blocks_cover_in_order(size):
    """Blocks tile range(size) in order; from 2 * SAMPLE_BLOCK on, every
    block holds SAMPLE_BLOCK elements up to the remainder folded into the
    last, so none reaches 2 * SAMPLE_BLOCK."""
    blocks = list(sample_blocks(size))
    assert blocks[0].start == 0 and blocks[-1].stop == size
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
    assert all(b.stop - b.start == SAMPLE_BLOCK for b in blocks[:-1])
    if size >= 2 * SAMPLE_BLOCK:
        assert all(SAMPLE_BLOCK <= b.stop - b.start < 2 * SAMPLE_BLOCK
                   for b in blocks)
    else:
        assert len(blocks) == 1


def test_blocked_draws_match_full_size_draws():
    """One draw call takes, bit for bit, one uniform draw for all X followed
    by one for all Y, for the two-column (+-1) and the four-column (block)
    law.  The four-column law at alpha = 1 with unit norms draws the
    two-column law's values from the same stream, and a two-column law
    never draws 0, also where e = 1, -1 or i pins X or Y to one value."""
    n = 3 * SAMPLE_BLOCK + 5
    gen = np.random.default_rng(5)
    e = 0.9 * np.exp(2j * np.pi * gen.random(n))
    nsq = gen.uniform(0.0, 0.8, n)
    alpha = 1.3
    ref = np.random.default_rng(9)
    ux, uy = ref.random(n), ref.random(n)
    pm1 = (np.where(ux < np.clip(0.5 * (1.0 + e.real), 0.0, 1.0), 1.0, -1.0)
           + 1j * np.where(uy < np.clip(0.5 * (1.0 + e.imag), 0.0, 1.0), 1.0, -1.0))
    cells = np.arange(n)
    assert np.array_equal(draw_block_xy(outcome_law(e), cells, 1.0,
                                        np.random.default_rng(9)), pm1)
    assert np.array_equal(draw_xy_pm1(outcome_law(e), cells,
                                      np.random.default_rng(9)), pm1)

    def three(u, part):
        p_succ = 0.5 * (1.0 + nsq / alpha ** 2)
        plus = np.clip(0.5 * (p_succ + part / alpha), 0.0, 1.0)
        minus = np.clip(0.5 * (p_succ - part / alpha), 0.0, 1.0)
        return np.where(u < plus, alpha, np.where(u < plus + minus, -alpha, 0.0))

    block = three(ux, e.real) + 1j * three(uy, e.imag)
    law = outcome_law(e[None, :], nsq, alpha).reshape(-1, 4)
    assert np.array_equal(draw_block_xy(law, cells, alpha, np.random.default_rng(9)),
                          block)

    for table in (e, np.resize(np.array([1.0, -1.0, 1j]), n)):
        two = draw_block_xy(outcome_law(table), cells, 1.0, np.random.default_rng(9))
        unit = outcome_law(table[None, :], np.ones(n), 1.0).reshape(-1, 4)
        four = draw_block_xy(unit, cells, 1.0, np.random.default_rng(9))
        assert two.tobytes() == four.tobytes()
        assert np.all(two.real != 0.0) and np.all(two.imag != 0.0)


def test_symmetric_zero_mean(z_system, rng):
    s, plus = z_system
    # j = 0, O = Z on |+>: <+|Z|+> = 0
    dist = outcome_distribution_O(s, plus, np.diag([1.0, -1.0]), 0)
    assert abs(_xy_mean(dist)) <= 1e-12


# --- block encodings ------------------------------------------------------------

def test_embed_block_z():
    b = embed_block(np.diag([1.0, -1.0]), 1.0)
    expected = np.block([[np.diag([1.0, -1.0]), np.zeros((2, 2))],
                         [np.zeros((2, 2)), -np.diag([1.0, -1.0])]])
    assert np.allclose(b.unitary, expected, atol=1e-12)


def test_embed_block_recovers_top_left(rng):
    o = 0.5 * np.array([[0, 1], [1, 0]], dtype=complex)
    b = embed_block(o, 1.0)
    dim = 2
    assert np.linalg.norm(b.unitary[:dim, :dim] - o) <= 1e-12


def test_embed_block_random_unitary(rng):
    o = random_hermitian(rng, 8, norm=0.9)
    b = embed_block(o, 1.0)
    u = b.unitary
    assert np.linalg.norm(u.conj().T @ u - np.eye(16), 2) <= 1e-10


def test_embed_block_rejects_large_norm():
    with pytest.raises(BlockEncodingError):
        embed_block(np.diag([2.0, -2.0]), 1.0)


def test_embed_block_rejects_non_hermitian():
    with pytest.raises(BlockEncodingError, match="must be Hermitian"):
        embed_block(np.array([[0.0, 0.5], [0.0, 0.0]]), 1.0)


def test_block_success_certain(rng):
    # O^2 = I and alpha = 1 make the post-selection always succeed
    _, s, phi = _random_instance(rng, 1)
    b = embed_block(np.diag([1.0, -1.0]), 1.0)
    p_fail, p_plus, p_minus = block_circuit_distribution(s, phi, b, 0.0, 0.7, "I")
    assert p_fail <= 1e-12
    assert block_success_prob(s, phi, b, 0.0) == pytest.approx(1.0)


def test_block_zero_time_z_expectation():
    s = diagonalize(dense_from_terms([(1.0, "X")]))
    zero = np.array([1.0, 0.0], dtype=complex)
    b = embed_block(np.diag([1.0, -1.0]), 1.0)
    p_fail, p_plus, p_minus = block_circuit_distribution(s, zero, b, 0.0, 0.0, "I")
    assert 1.0 * (p_plus - p_minus) == pytest.approx(1.0, abs=1e-12)


def test_block_exhaustive_unbiased(rng):
    h, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.8)
    alpha = 1.0
    b = embed_block(o, alpha)
    for t1, t2 in ((0.0, 0.0), (0.9, -0.4), (2.2, 1.3)):
        target = phi.conj() @ _dense_expm(h, t2) @ o @ _dense_expm(h, t1) @ phi
        pf, pp, pm = block_circuit_distribution(s, phi, b, t1, t2, "I")
        ex = alpha * (pp - pm)
        pf2, pp2, pm2 = block_circuit_distribution(s, phi, b, t1, t2, "S")
        ey = alpha * (pp2 - pm2)
        assert abs((ex + 1j * ey) - target) <= 1e-10
        assert abs(exact_expectation_block(s, phi, o, t1, t2) - target) <= 1e-10
        # paper's success-probability formula against the literal circuit
        moved = _dense_expm(h, t1) @ phi
        p_succ = 0.5 * (1.0 + (np.linalg.norm(o @ moved) ** 2) / alpha ** 2)
        assert abs((1.0 - pf) - p_succ) <= 1e-10


def test_block_fast_path_matches_circuit(rng):
    h, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.7)
    alpha = 1.5
    b = embed_block(o, alpha)
    t1, t2 = 0.8, -1.1
    e = exact_expectation_block(s, phi, o, t1, t2)
    nsq = np.linalg.norm(o @ (_dense_expm(h, t1) @ phi)) ** 2
    p_succ = 0.5 * (1 + nsq / alpha ** 2)
    pf, pp, pm = block_circuit_distribution(s, phi, b, t1, t2, "I")
    assert pp == pytest.approx(0.5 * (p_succ + e.real / alpha), abs=1e-12)
    assert pm == pytest.approx(0.5 * (p_succ - e.real / alpha), abs=1e-12)
    pf, pp, pm = block_circuit_distribution(s, phi, b, t1, t2, "S")
    assert pp == pytest.approx(0.5 * (p_succ + e.imag / alpha), abs=1e-12)


def test_phase_block_rows_give_identical_tables(rng):
    _, s, phi = _random_instance(rng, 3)
    o_mat = random_unitary(rng, 8)
    d = 6
    phases = phase_block(s, d + 5)
    pairs = [(expectation_table_1d(s, phi, d, phases=phases),
              expectation_table_1d(s, phi, d)),
             (expectation_table_O(s, phi, o_mat, d, phases=phases),
              expectation_table_O(s, phi, o_mat, d)),
             (table_states(s, phi, d, phases=phases), table_states(s, phi, d))]
    for got, want in pairs:
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="cannot serve degree"):
        table_states(s, phi, d + 6, phases=phases)


@pytest.mark.parametrize("d", [0, 1, 17, 386])
def test_phase_block_mirrored_rows_equal_direct_exponentials(d):
    """Rows -d..-1 as conjugates of rows d..1 carry the bits of exp itself."""
    eigenvalues = np.sort(np.random.default_rng(d).uniform(-3.0, 2.0, 1024))
    s = SpectralData(eigenvalues=eigenvalues, eigenvectors=np.eye(1),
                     gap=float(eigenvalues[1] - eigenvalues[0]),
                     tau=(math.pi / 3.0) / np.abs(eigenvalues).max())
    direct = np.exp(-1j * np.outer(np.arange(-d, d + 1), s.scaled_eigenvalues))
    assert np.array_equal(phase_block(s, d), direct)


def test_real_solve_tables_match_complex_solve(rng, monkeypatch):
    """Tables, norm tables, the laws of every table kind and the commutation
    check from the real solve of a real H, whose V is float64, agree with
    those of the complex solve of the same matrix and of the same
    eigensystem cast to complex128."""
    h = dense_from_terms([(-1.0, "ZZI"), (-1.0, "IZZ"), (-0.7, "XII"),
                          (-0.5, "IXI"), (-0.3, "IIX"), (0.2, "ZII")])
    s = diagonalize(h)
    assert s.eigenvectors.dtype == np.float64
    evals, evecs = np.linalg.eigh(h)  # complex128 input: the complex solve
    solved = SpectralData(eigenvalues=evals, eigenvectors=evecs,
                          gap=float(evals[1] - evals[0]),
                          tau=(math.pi / 3.0) / np.abs(evals).max())
    cast = SpectralData(eigenvalues=s.eigenvalues,
                        eigenvectors=s.eigenvectors.astype(complex),
                        gap=s.gap, tau=s.tau)
    phi = random_state(rng, 8)
    o_mat = random_unitary(rng, 8)
    o_herm = random_hermitian(rng, 8, norm=0.9)
    # a unitary that commutes with H, and the same one moved off it
    signs = np.array([1.0, -1.0, -1.0, 1.0, 1.0, -1.0, 1.0, -1.0])
    o_comm = cast.from_eigenbasis(signs[:, None] * cast.to_eigenbasis(np.eye(8)))
    o_off = o_comm @ kron_word("XII")
    monkeypatch.setattr(estimators, "estimate_ratio", lambda *args, **kwargs: "run")
    cfg = EstimationConfig(epsilon=0.1, eta=0.5, nu=0.1, seed=0)

    def commutation(spectral, op):
        try:
            return estimate_gsprop_commutative(spectral, phi, op, cfg)
        except PreconditionError as exc:
            return str(exc)

    d = 9
    for ref in (solved, cast):
        pairs = [(expectation_table_1d(s, phi, d), expectation_table_1d(ref, phi, d)),
                 (expectation_table_O(s, phi, o_mat, d),
                  expectation_table_O(ref, phi, o_mat, d)),
                 (expectation_table_2d(s, phi, o_mat, d),
                  expectation_table_2d(ref, phi, o_mat, d)),
                 (block_norm_table(s, phi, o_herm, d),
                  block_norm_table(ref, phi, o_herm, d))]
        for kind in TABLE_KINDS:
            op, alpha = (o_herm, 1.5) if kind == "block" else (o_mat, 1.0)
            got, want = (next(oracle_tables(spectral, phi, [op], d, d_gse=d + 3,
                                            kind=kind, alpha=alpha))
                         for spectral in (s, ref))
            pairs += [(got.gse, want.gse), (got.overlap, want.overlap),
                      (got.weighted, want.weighted)]
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12
        for op in (o_comm, PauliString("III")):
            assert commutation(s, op) == commutation(ref, op) == "run"
        for op in (o_off, PauliString("YXZ")):
            assert re.fullmatch(r"observable does not commute with H \(.*\)",
                                commutation(s, op))
            assert commutation(s, op) == commutation(ref, op)


@pytest.mark.parametrize("op", [PauliString("YXZ"), PauliString("XZI"),
                                random_unitary(np.random.default_rng(3), 8)],
                         ids=["permutation-complex", "permutation-real", "dense"])
def test_observable_applies_to_float64_states(op):
    """O applied to float64 columns (as a real V gives) is O applied to the
    same columns cast to complex128, bit for bit."""
    states = np.random.default_rng(5).normal(size=(8, 6))
    obs = observable(op, 8)
    got = obs.apply(states)
    assert got.dtype == np.complex128
    assert got.tobytes() == obs.apply(states.astype(complex)).tobytes()


def test_embed_block_real_operator_matches_complex_solve():
    """alpha and the accept/reject decision of a real O are those read off
    the complex solve of O."""
    gen = np.random.default_rng(43)
    for dim, scale in ((2, 1.0), (5, 1.0), (8, 1.0), (8, 2.5)):
        m = gen.normal(size=(dim, dim))
        o = scale * (m + m.T) / np.linalg.norm(m + m.T, 2)
        norm = float(np.abs(np.linalg.eigvalsh(o.astype(complex))).max())
        for alpha in (None, 0.5, 0.99, 1.0 - 5e-13, 1.0, 1.0 + 1e-9, 1.7, 3.0):
            want = max(1.0, norm) if alpha is None else alpha
            if norm > want + 1e-12 or (norm / want) ** 2 - 1.0 > UNITARY_TOL:
                with pytest.raises(BlockEncodingError):
                    embed_block(o, alpha)
            else:
                assert embed_block(o, alpha).alpha == pytest.approx(want, rel=1e-13)


def test_embed_block_rejects_complex_non_hermitian():
    """Complex symmetric, so not Hermitian: the complex path checks too."""
    with pytest.raises(BlockEncodingError, match="must be Hermitian"):
        embed_block(np.array([[0.0, 0.5j], [0.5j, 0.0]]), 1.0)


@pytest.mark.parametrize("word", [a + b for a in "IXYZ" for b in "IXYZ"])
def test_pauli_tables_equal_dense_formula_bit_for_bit(rng, word):
    """The gather O Psi of a signed permutation gives the dense tables."""
    _, s, phi = _random_instance(rng, 2)
    d = 5
    amps = s.eigenvectors.conj().T @ phi
    phases = np.exp(-1j * np.outer(np.arange(-d, d + 1), s.scaled_eigenvalues))
    states = s.eigenvectors @ (phases * amps[None, :]).T
    moved = kron_word(word) @ states
    assert observable(PauliString(word)).columns is not None
    table = expectation_table_2d(s, phi, PauliString(word), d)
    assert table.tobytes() == (states[:, ::-1].conj().T @ moved).tobytes()
    nsq = block_norm_table(s, phi, PauliString(word), d)
    assert nsq.tobytes() == (np.linalg.norm(moved, axis=0) ** 2).tobytes()


@pytest.mark.parametrize("n", [2, 3])
def test_block_tables_match_block_circuit_everywhere(rng, n):
    _, s, phi = _random_instance(rng, n)
    o = random_hermitian(rng, 2 ** n, norm=0.9)
    alpha = 1.2
    b = embed_block(o, alpha)
    d = 4
    table = expectation_table_2d(s, phi, o, d)
    nsq = block_norm_table(s, phi, o, d)
    for j in range(-d, d + 1):
        for j2 in range(-d, d + 1):
            # the block circuit applies t1 = j2 tau first, then t2 = j tau
            t1, t2 = j2 * s.tau, j * s.tau
            pf, xp, xm = block_circuit_distribution(s, phi, b, t1, t2, "I")
            _, yp, ym = block_circuit_distribution(s, phi, b, t1, t2, "S")
            circuit = alpha * ((xp - xm) + 1j * (yp - ym))
            assert abs(table[j + d, j2 + d] - circuit) <= 1e-10
            # p_succ = (1 + nsq / alpha^2) / 2 depends on t1 alone
            assert abs(nsq[j2 + d] - alpha ** 2 * (1.0 - 2.0 * pf)) <= 1e-10


def test_block_law_at_flat_cells_equals_per_shot_thresholds(rng):
    """The law keeps the table's cell axes, J' major, and flattening them is
    a view whose row (j' + d)(2d + 1) + (j + d) holds, bit for bit, the
    thresholds of a shot at (j, j') from e = table[j + d, j' + d] and
    p_succ = (1 + nsq[j' + d] / alpha^2) / 2, and matches the literal
    circuit's [P(X = +alpha), P(Y = +alpha), P(X != 0), P(Y != 0)]."""
    _, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.9)
    alpha, d = 1.2, 3
    width = 2 * d + 1
    table = expectation_table_2d(s, phi, o, d)
    nsq = block_norm_table(s, phi, o, d)
    cell_law = outcome_law(table, nsq, alpha)
    assert cell_law.shape == (width, width, 4)
    law = cell_law.reshape(-1, 4)
    assert np.shares_memory(law, cell_law)
    js, js2 = rng.integers(-d, d + 1, size=(2, 500))
    e = table[js + d, js2 + d]
    p_succ = 0.5 * (1.0 + nsq[js2 + d] / alpha ** 2)
    plus, nonzero = [], []
    for part in (e.real, e.imag):
        p = np.clip(0.5 * (p_succ + part / alpha), 0.0, 1.0)
        m = np.clip(0.5 * (p_succ - part / alpha), 0.0, 1.0)
        plus.append(p)
        nonzero.append(p + m)
    shots = plus + nonzero
    gathered = law[(js2 + d) * width + (js + d)]
    assert gathered.tobytes() == np.stack(shots, axis=1).tobytes()
    b = embed_block(o, alpha)
    for j in range(-d, d + 1):
        for j2 in range(-d, d + 1):
            plus, nonzero = [], []
            for w in ("I", "S"):
                pf, p, _ = block_circuit_distribution(s, phi, b, j2 * s.tau,
                                                      j * s.tau, w)
                plus.append(p)
                nonzero.append(1.0 - pf)
            circuit = plus + nonzero
            assert np.allclose(law[(j2 + d) * width + (j + d)], circuit,
                               rtol=0.0, atol=1e-10)


def test_pm1_law_at_flat_cells_matches_circuit(rng):
    """Row (j' + d)(2d + 1) + (j + d) of the +-1 law of a two-time table, its
    cell axes flattened, and row j + d of a one-time one, hold
    [P(X = +1), P(Y = +1)] of the literal circuit at (j, j') or j."""
    _, s, phi = _random_instance(rng, 2)
    o = random_unitary(rng, 4)
    d = 3
    width = 2 * d + 1
    law_2d = outcome_law(expectation_table_2d(s, phi, o, d))
    law_1d = outcome_law(expectation_table_1d(s, phi, d))
    assert law_2d.shape == (width, width, 2) and law_1d.shape == (width, 2)
    law_2d = law_2d.reshape(-1, 2)
    for j in range(-d, d + 1):
        one = outcome_distribution_1d(s, phi, j)
        assert np.allclose(law_1d[j + d], [one["X"][0], one["Y"][0]],
                           rtol=0.0, atol=1e-10)
        for j2 in range(-d, d + 1):
            two = outcome_distribution_2d(s, phi, o, j, j2)
            assert np.allclose(law_2d[(j2 + d) * width + (j + d)],
                               [two["X"][0], two["Y"][0]], rtol=0.0, atol=1e-10)


def _real_part_moments(law, alpha, psi):
    """E[Re(z e^{i psi})^2] at every cell (rows) and phase (columns), from a
    cell law of :func:`outcome_law` whose X and Y take +-alpha or 0: columns
    [P(X = +alpha), P(Y = +alpha)], then [P(X != 0), P(Y != 0)] for a
    four-column law, 1 for a two-column one.  X and Y are independent given
    the cell, so with Re = X cos psi - Y sin psi,
    E[Re^2] = cos^2 E[X^2] + sin^2 E[Y^2] - sin 2psi E[X] E[Y]."""
    law = law.reshape(-1, law.shape[-1])  # a row per cell
    moments = []
    for col in (0, 1):
        nonzero = law[:, col + 2] if law.shape[1] == 4 else 1.0
        p_plus, p_minus = law[:, col], nonzero - law[:, col]
        moments.append((alpha * (p_plus - p_minus),
                        alpha ** 2 * (p_plus + p_minus)))
    (mean_x, second_x), (mean_y, second_y) = moments
    c, s = np.cos(psi), np.sin(psi)
    return (np.outer(second_x, c * c) + np.outer(second_y, s * s)
            - np.outer(mean_x * mean_y, 2 * s * c))


def test_real_part_second_moment_is_three_halves_of_the_bound(rng):
    """The real part of a shot's value z e^{i psi} has second moment at most
    3/2 per unit weight, 3/2 alpha^2 for the block circuit, at every phase:
    read off the two- and four-column outcome_law exactly on random tables, on unit
    entries around the circle, and on the worst case e = (1 - i)/sqrt 2
    (alpha times it, nsq = alpha^2, for the block circuit) at psi = pi/4,
    where it is reached.  E|z|^2 = E[X^2] + E[Y^2] is 2 per unit weight."""
    _, s, phi = _random_instance(rng, 2)
    psi = np.linspace(0.0, 2.0 * math.pi, 721)  # psi[90] = pi/4
    worst = (1.0 - 1j) / math.sqrt(2.0)
    circle = np.exp(1j * np.linspace(0.0, 2.0 * math.pi, 97))
    table = expectation_table_2d(s, phi, random_unitary(rng, 4), 3).reshape(-1)
    moments = _real_part_moments(outcome_law(np.concatenate((table, circle, [worst]))),
                                 1.0, psi)
    assert moments.max() <= 1.5 + 1e-12
    assert abs(moments[-1, 90] - 1.5) <= 1e-12
    assert np.abs(moments[:, 0] + moments[:, 180] - 2.0).max() <= 1e-12  # psi = 0, pi/2

    alpha, d = 1.2, 3
    o = random_hermitian(rng, 4, norm=0.9)
    for table, nsq in ((expectation_table_2d(s, phi, o, d), block_norm_table(s, phi, o, d)),
                       (alpha * np.array([[worst]]), np.array([alpha ** 2]))):
        moments = _real_part_moments(outcome_law(table, nsq, alpha), alpha, psi)
        assert moments.max() <= 1.5 * alpha ** 2 * (1 + 1e-12)
    assert abs(moments[0, 90] - 1.5 * alpha ** 2) <= 1e-12


def test_block_success_frequency(rng):
    h, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.9)
    alpha = 1.2
    b = embed_block(o, alpha)
    t1 = 0.6
    p_succ = block_success_prob(s, phi, b, t1)
    e = exact_expectation_block(s, phi, o, t1, 0.3)
    nsq = np.linalg.norm(o @ (_dense_expm(h, t1) @ phi)) ** 2
    n = 10 ** 5
    law = outcome_law(np.array([[e]]), np.array([nsq]), alpha).reshape(-1, 4)
    zs = draw_block_xy(law, np.zeros(n, dtype=int), alpha, np.random.default_rng(123))
    succ_freq = np.mean(zs.real != 0.0)
    sigma = math.sqrt(p_succ * (1 - p_succ) / n)
    assert abs(succ_freq - p_succ) <= 5 * sigma
    assert set(np.unique(zs.real)).issubset({-alpha, 0.0, alpha})


# --- generalized (variance-reduced) test ----------------------------------------

def test_generalized_reduces_to_hadamard(rng):
    h, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.8)
    b = embed_block(o, 1.3)
    t1, t2 = 0.4, 0.9
    a = 1.0 / math.sqrt(2.0)
    for w in ("I", "S"):
        pf_g, pp_g, pm_g = generalized_circuit_distribution(
            s, phi, b, t1, t2, a, w)
        pf_b, pp_b, pm_b = block_circuit_distribution(s, phi, b, t1, t2, w)
        assert pf_g == pytest.approx(pf_b, abs=1e-10)
        assert pp_g == pytest.approx(pp_b, abs=1e-10)
        assert pm_g == pytest.approx(pm_b, abs=1e-10)


def test_generalized_exhaustive_unbiased(rng):
    h, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.9)
    alpha = 2.0
    b = embed_block(o, alpha)
    t1, t2 = 0.7, -0.2
    a = 1.0 / math.sqrt(alpha + 1.0)
    value = alpha / (2.0 * a * math.sqrt(1 - a * a))
    target = phi.conj() @ _dense_expm(h, t2) @ o @ _dense_expm(h, t1) @ phi
    _, pp, pm = generalized_circuit_distribution(s, phi, b, t1, t2, a, "I")
    _, pps, pms = generalized_circuit_distribution(s, phi, b, t1, t2, a, "S")
    assert abs(value * (pp - pm) - target.real) <= 1e-10
    assert abs(value * (pps - pms) - target.imag) <= 1e-10


def test_generalized_variance_closed_form_example():
    # alpha = 3, a = 1/2, ||O e^{-iHt1} phi|| = 1:
    # E[X^2] = 12 * (1/4 + (3/4)/9) = 4, versus 4.5 + 0.5 = 5 for Hadamard
    assert generalized_second_moment(1.0, 3.0, 0.5) == pytest.approx(4.0)
    assert generalized_second_moment(1.0, 3.0, 1 / math.sqrt(2)) \
        == pytest.approx(5.0)


def test_generalized_variance_matches_exhaustive(rng):
    h, s, phi = _random_instance(rng, 2)
    o = random_hermitian(rng, 4, norm=0.9)
    alpha = 3.0
    b = embed_block(o, alpha)
    t1, t2 = 0.5, 1.1
    nsq = float(np.linalg.norm(o @ (_dense_expm(h, t1) @ phi)) ** 2)
    e = exact_expectation_block(s, phi, o, t1, t2)
    for a in (0.5, 1 / math.sqrt(alpha + 1.0), 1 / math.sqrt(2.0)):
        value = alpha / (2 * a * math.sqrt(1 - a * a))
        _, pp, pm = generalized_circuit_distribution(s, phi, b, t1, t2, a, "I")
        exhaustive_var = value ** 2 * (pp + pm) - (value * (pp - pm)) ** 2
        assert exhaustive_var == pytest.approx(
            generalized_variance(e.real, nsq, alpha, a), abs=1e-9)


def test_generalized_variance_reduction(rng):
    for trial in range(4):
        local = np.random.default_rng(500 + trial)
        h, s, phi = _random_instance(local, 2)
        o = random_hermitian(local, 4, norm=1.0)
        alpha = local.uniform(1.0, 4.0)
        t1 = local.uniform(-2, 2)
        nsq = float(np.linalg.norm(o @ (_dense_expm(h, t1) @ phi)) ** 2)
        tuned = generalized_second_moment(nsq, alpha, 1 / math.sqrt(alpha + 1))
        hadamard_m2 = generalized_second_moment(nsq, alpha, 1 / math.sqrt(2))
        assert tuned <= hadamard_m2 + 1e-12

