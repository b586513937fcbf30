import math

import numpy as np
import pytest

from gspe import (BlockEncoding, EstimationConfig, build_operator, diagonalize,
                  embed_block, estimate_gsprop_block, estimate_overlap, estimators)
from gspe.applications import (LinearSystemInstance, annihilation_matrix,
                               assemble_observable, build_gap_amplified, build_hg,
                               estimate_1rdm_entry, exact_1rdm_entry,
                               majorana_product, majorana_string,
                               prepare_initial_state, qlss_estimate,
                               qlss_target_state, random_linear_system)
from gspe.estimators import PreconditionError
from gspe.seeding import stage_rng
from gspe.spectral import mixed_with_noise, normalized

from conftest import kron_word


@pytest.fixture(scope="module")
def kappa4():
    a = np.diag([1.0, 0.5, 1.0 / 3.0, 0.25]).astype(complex)
    b = np.ones(4) / 2.0
    return LinearSystemInstance(a=a, b=b, kappa=4.0)


# --- effective Hamiltonian -------------------------------------------------------

def test_hg_identity_matrix():
    b = normalized(np.array([1.0, 2.0, 0.0, -1.0]))
    hg = build_hg(np.eye(4), b)
    expected = np.eye(4) - np.outer(b, b.conj())
    assert np.allclose(hg, expected, atol=1e-12)
    evals, evecs = np.linalg.eigh(hg)
    assert np.allclose(evals, [0.0, 1.0, 1.0, 1.0], atol=1e-12)
    assert abs(abs(b.conj() @ evecs[:, 0]) - 1.0) <= 1e-10


def test_hg_diagonal_two_level():
    a = np.diag([1.0, 0.5])
    b = np.array([1.0, 0.0])
    hg = build_hg(a, b)
    evals, evecs = np.linalg.eigh(hg)
    assert abs(evals[0]) <= 1e-10
    x = normalized(np.linalg.solve(a, b))
    assert abs(abs(x.conj() @ evecs[:, 0]) - 1.0) <= 1e-10


def test_hg_weyl_bound(rng):
    for trial in range(4):
        inst = random_linear_system(4, 3.0, rng)
        hg = build_hg(inst.a, inst.b)
        evals = np.linalg.eigvalsh(hg)
        smin = np.linalg.svd(inst.a, compute_uv=False).min()
        assert abs(evals[0]) <= 1e-9
        assert evals[1] >= smin ** 2 - 1e-9


# --- gap-amplified Hamiltonian ----------------------------------------------------

def test_gap_amplified_identity_system():
    b = normalized(np.array([0.6, 0.8]))
    hbar = build_gap_amplified(np.eye(2), b, 1.0)
    evals = np.linalg.eigvalsh(hbar)
    nonzero = np.abs(evals)[np.abs(evals) > 1e-9]
    assert nonzero.min() == pytest.approx(1.0, abs=1e-9)


def test_gap_amplified_spectrum_symmetry(kappa4):
    hbar = build_gap_amplified(kappa4.a, kappa4.b, 1.0)
    evals = np.linalg.eigvalsh(hbar)
    assert np.allclose(evals, -evals[::-1], atol=1e-9)
    assert np.sum(np.abs(evals) <= 1e-9) == 2


def test_gap_amplified_kappa_bound(kappa4):
    hbar = build_gap_amplified(kappa4.a, kappa4.b, 1.0)
    evals = np.abs(np.linalg.eigvalsh(hbar))
    assert evals[evals > 1e-9].min() >= 1.0 / kappa4.kappa - 1e-9


@pytest.mark.parametrize("s", [0.0, 0.3, 0.7, 1.0])
def test_gap_amplified_square_block_identity(kappa4, s):
    a, b = kappa4.a, kappa4.b
    hbar = build_gap_amplified(a, b, s)
    dim2 = 2 * a.shape[0]
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    abar = (1 - s) * np.kron(z, np.eye(a.shape[0])) + s * np.kron(x, a)
    bbar = np.kron(np.array([1, 1]) / math.sqrt(2), normalized(b))
    proj = np.eye(dim2) - np.outer(bbar, bbar.conj())
    hbar_g = abar.conj().T @ proj @ abar
    square = hbar @ hbar
    assert np.linalg.norm(square[:dim2, :dim2] - hbar_g) <= 1e-10
    assert np.linalg.norm(square[:dim2, dim2:]) <= 1e-10


def test_gap_amplified_rejects_bad_s(kappa4):
    with pytest.raises(PreconditionError):
        build_gap_amplified(kappa4.a, kappa4.b, 1.5)


# --- instance validation -----------------------------------------------------------

def test_instance_rejects_large_singular_values():
    with pytest.raises(PreconditionError):
        LinearSystemInstance(a=2.0 * np.eye(2), b=np.array([1.0, 0.0]),
                             kappa=2.0)


def test_instance_rejects_small_singular_values():
    with pytest.raises(PreconditionError):
        LinearSystemInstance(a=np.diag([1.0, 0.1]), b=np.array([1.0, 0.0]),
                             kappa=2.0)


def test_instance_rejects_unnormalized_rhs():
    with pytest.raises(PreconditionError):
        LinearSystemInstance(a=np.eye(2), b=np.array([1.0, 1.0]), kappa=2.0)


# --- QLSS pipeline ------------------------------------------------------------------

def test_qlss_identity_system(rng):
    b = normalized(np.array([0.8, 0.0, 0.6, 0.0]))
    inst = LinearSystemInstance(a=np.eye(4, dtype=complex), b=b, kappa=1.5)
    m_op = build_operator([(1.0, "ZI")])
    report = qlss_estimate(inst, m_op, 0.05, 0.1, "oracle", overlap=0.7, seed=1)
    exact = b.conj() @ m_op.matrix() @ b
    assert abs(report.value.real - exact.real) <= 0.05


def test_qlss_identity_observable(kappa4):
    report = qlss_estimate(kappa4, build_operator([(1.0, "II")]), 0.05, 0.1,
                           "oracle", overlap=0.6, seed=2)
    assert abs(report.value.real - 1.0) <= 0.05


def test_qlss_kappa4_z_observable(kappa4):
    m_op = build_operator([(1.0, "ZI")])
    x = kappa4.solution_state()
    exact = float((x.conj() @ m_op.matrix() @ x).real)
    hits = 0
    for seed in range(8):
        report = qlss_estimate(kappa4, m_op, 0.05, 0.1, "oracle",
                               overlap=0.6, seed=seed)
        hits += abs(report.value.real - exact) <= 0.05
    assert hits >= 7


def test_qlss_shares_the_overlap_stage(kappa4):
    seed, epsilon, nu, overlap = 3, 0.05, 0.1, 0.6
    report = qlss_estimate(kappa4, build_operator([(1.0, "ZI")]), epsilon, nu,
                           "oracle", overlap=overlap, seed=seed)
    s = diagonalize(build_gap_amplified(kappa4.a, kappa4.b, 1.0),
                    require_unique_ground_state=False)
    phi0 = prepare_initial_state(kappa4, s, "oracle", overlap,
                                 stage_rng(seed, "state-prep"))
    cfg = EstimationConfig(epsilon=epsilon, eta=0.8 * overlap, nu=nu, seed=seed,
                           gamma=report.intermediate["gamma"])
    assert report.intermediate["p0_bar"] == estimate_overlap(
        s, phi0, report.intermediate["x_good"], cfg, nu=nu / 2)


def test_block_pipelines_never_form_the_unitary(kappa4, monkeypatch):
    """The block-circuit law reads only O and alpha: with
    BlockEncoding.unitary made to raise, the block pipeline and qlss still
    run and give the same reports."""
    s = diagonalize(build_operator([(1.0, "ZZ"), (0.4, "XI"), (0.2, "ZI")]))
    phi0 = mixed_with_noise(s.ground_state(), np.arange(1.0, 5.0) * (1 + 1j), 0.6)
    o_mat = build_operator([(0.6, "ZI"), (0.3, "XX")]).matrix()
    cfg = EstimationConfig(epsilon=0.1, eta=0.5, nu=0.1, seed=8)

    def run():
        return (estimate_gsprop_block(s, phi0, embed_block(o_mat, 1.2), cfg),
                qlss_estimate(kappa4, build_operator([(1.0, "ZI")]), 0.1, 0.1,
                              "oracle", overlap=0.6, seed=3))

    want = run()

    def unavailable(self):
        raise AssertionError("the block unitary was formed")

    monkeypatch.setattr(BlockEncoding, "unitary", property(unavailable))
    for got, ref in zip(run(), want):
        assert got.value == ref.value and got.shots_used == ref.shots_used
        assert got.budget == ref.budget
        assert repr(got.intermediate) == repr(ref.intermediate)


def test_qlss_observable_annihilates_kernel_partner(kappa4):
    m_tilde = assemble_observable(kappa4, build_operator([(1.0, "ZI")]))
    bbar = np.kron(np.array([1, 1]) / math.sqrt(2), kappa4.b)
    branch = np.kron(np.array([0.0, 1.0]), bbar)
    assert np.linalg.norm(m_tilde @ branch) <= 1e-10


def test_qlss_target_state_in_kernel(kappa4):
    hbar = build_gap_amplified(kappa4.a, kappa4.b, 1.0)
    target = qlss_target_state(kappa4)
    assert np.linalg.norm(hbar @ target) <= 1e-9


def test_qlss_overlap_floor(kappa4):
    with pytest.raises(PreconditionError):
        qlss_estimate(kappa4, build_operator([(1.0, "ZI")]), 0.05, 0.1,
                      "oracle", overlap=0.1, seed=0)


def test_qlss_schedule_mode(kappa4):
    report = qlss_estimate(kappa4, build_operator([(1.0, "II")]), 0.1, 0.2,
                           "schedule", seed=3)
    assert abs(report.value.real - 1.0) <= 0.1
    assert report.intermediate["kernel_mass"] >= 0.25


def test_qlss_random_instances_agreement(rng):
    hits = 0
    for trial in range(10):
        dim = 4 if trial % 2 else 8
        inst = random_linear_system(dim, float(rng.uniform(1.5, 5.0)), rng)
        m_op = build_operator([(1.0, "Z" + "I" * (int(math.log2(dim)) - 1))])
        x = inst.solution_state()
        exact = float((x.conj() @ m_op.matrix() @ x).real)
        report = qlss_estimate(inst, m_op, 0.05, 0.1, "oracle",
                               overlap=0.6, seed=100 + trial)
        hits += abs(report.value.real - exact) <= 0.05
    # nu = 0.1 with three-sigma binomial slack over ten trials
    assert hits >= 10 * (0.9 - 3 * math.sqrt(0.09 / 10))


# --- Majorana / Jordan-Wigner --------------------------------------------------------

def test_majorana_base_cases():
    assert majorana_string(0, 2).word == "XI"
    assert majorana_string(1, 2).word == "YI"
    assert majorana_string(2, 2).word == "ZX"
    assert majorana_string(3, 2).word == "ZY"


def test_majorana_out_of_range():
    with pytest.raises(PreconditionError):
        majorana_string(4, 2)


def test_majorana_anticommutation_dense():
    n = 4
    gammas = [kron_word(majorana_string(a, n).word) for a in range(2 * n)]
    for i in range(2 * n):
        for k in range(i, 2 * n):
            anti = gammas[i] @ gammas[k] + gammas[k] @ gammas[i]
            expected = 2.0 * np.eye(2 ** n) if i == k else np.zeros((2 ** n,) * 2)
            assert np.linalg.norm(anti - expected) <= 1e-12


def test_majorana_product_single_string():
    phase, string = majorana_product(0, 1, 2)
    assert abs(abs(phase) - 1.0) <= 1e-15
    ref = kron_word("XI") @ kron_word("YI")
    assert np.allclose(ref, phase * kron_word(string.word), atol=1e-12)


def test_annihilation_matrix_matches_jordan_wigner():
    # a_0 on two modes is |0><1| on the first tensor factor
    a0 = annihilation_matrix(0, 2)
    expected = np.kron(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))
    assert np.allclose(a0, expected, atol=1e-12)


# --- 1RDM estimation ------------------------------------------------------------------

@pytest.fixture(scope="module")
def filled_two_modes():
    # number operator with detuned levels: mode 0 filled, mode 1 empty
    op = build_operator([(0.5, "ZI"), (-0.5, "IZ")])
    return diagonalize(op)


def test_1rdm_diagonal_occupations(filled_two_modes):
    s = filled_two_modes
    assert exact_1rdm_entry(s, 0, 0, 2) == pytest.approx(1.0)
    assert exact_1rdm_entry(s, 1, 1, 2) == pytest.approx(0.0)
    cfg = EstimationConfig(epsilon=0.05, eta=0.9, nu=0.1, seed=0)
    report = estimate_1rdm_entry(s, s.ground_state(), 0, 0, cfg)
    assert abs(report.value - 1.0) <= 0.05
    assert abs(report.value.imag) <= 0.05


@pytest.fixture(scope="module")
def hopping_two_modes():
    op = build_operator([(0.5, "XX"), (0.5, "YY"), (0.15, "ZI"), (-0.1, "IZ")])
    return diagonalize(op)


def test_1rdm_offdiagonal_matches_oracle(hopping_two_modes, rng):
    s = hopping_two_modes
    exact = exact_1rdm_entry(s, 0, 1, 2)
    noise = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi0 = mixed_with_noise(s.ground_state(), noise, 0.6)
    hits = 0
    for seed in range(30):
        cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=seed,
                               n_g=9, k=40000)
        report = estimate_1rdm_entry(s, phi0, 0, 1, cfg)
        hits += abs(report.value - exact) <= 0.05
    assert hits >= 27


def test_1rdm_hermiticity(hopping_two_modes, rng):
    s = hopping_two_modes
    noise = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi0 = mixed_with_noise(s.ground_state(), noise, 0.6)
    cfg = EstimationConfig(epsilon=0.04, eta=0.5, nu=0.1, seed=5)
    d01 = estimate_1rdm_entry(s, phi0, 0, 1, cfg).value
    d10 = estimate_1rdm_entry(s, phi0, 1, 0, cfg).value
    assert abs(d01 - np.conj(d10)) <= 2 * 0.04
    exact01 = exact_1rdm_entry(s, 0, 1, 2)
    assert abs(d01 - exact01) <= 0.04


@pytest.mark.parametrize("p, q", [(0, 2), (-1, 0), (5, 5)])
def test_1rdm_rejects_bad_modes_before_sampling(hopping_two_modes, monkeypatch,
                                                p, q):
    def no_sampling(*args, **kwargs):
        raise AssertionError("shots were drawn")

    monkeypatch.setattr(estimators, "_pool_sums", no_sampling)
    s = hopping_two_modes
    cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=0)
    with pytest.raises(PreconditionError, match="out of range"):
        estimate_1rdm_entry(s, s.ground_state(), p, q, cfg)


def test_1rdm_shares_the_overlap_stage(hopping_two_modes, rng):
    s = hopping_two_modes
    noise = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi0 = mixed_with_noise(s.ground_state(), noise, 0.6)
    cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=12)
    report = estimate_1rdm_entry(s, phi0, 0, 1, cfg)
    assert report.intermediate["p0_bar"] == estimate_overlap(
        s, phi0, report.intermediate["x_good"], cfg, nu=cfg.nu / 3)
