import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from gspe import (EstimationConfig, build_operator, diagonalize, embed_block,
                  estimate_gse, estimate_gsprop_block,
                  estimate_gsprop_commutative, estimate_gsprop_general,
                  estimate_overlap, good_point, median_of_means)
from gspe import estimators, hadamard
from gspe.applications import (estimate_1rdm_entry, majorana_product,
                               qlss_estimate, random_linear_system)
from gspe.estimators import (COMMUTATION_TOL, EstimationError, PreconditionError,
                             acdf_2d_exact, acdf_exact, acdf_weighted_exact,
                             bracket_iterations, certify, certify_schedule,
                             expectation_table_1d, expectation_table_2d,
                             EvolutionBudget, block_norm_table, g2_estimator,
                             batch_means, g_estimator, gse_delta, invert_cdf,
                             mom_schedule, property_delta, sample_J,
                             sample_j_batch, sample_j_counts, group_means)
from gspe.fourier import MAX_DELTA, FourierApprox, build_fourier_approx
from gspe.hadamard import (SAMPLE_BLOCK, draw_block_xy, observable,
                           outcome_distribution_1d, outcome_law, sample_blocks)
from gspe.seeding import stage_rng
from gspe.spectral import DimensionMismatchError, mixed_with_noise, overlaps

from conftest import (TFIM3_TERMS, kron_word, random_hermitian, random_state,
                      random_unitary)


def _spectral_at(positions):
    """Spectral data whose rescaled eigenvalues are exactly `positions`
    (the largest magnitude is padded to pi/3 so tau = 1)."""
    positions = sorted(positions)
    assert max(abs(p) for p in positions) <= math.pi / 3 + 1e-12
    values = list(positions)
    if abs(max(values, key=abs)) < math.pi / 3 - 1e-12:
        values.append(math.pi / 3)
    dim = 1 << max(1, math.ceil(math.log2(len(values)))) if len(values) > 1 else 2
    values = values + [math.pi / 3] * (dim - len(values))
    spectral = diagonalize(np.diag(sorted(values)), degeneracy_tolerance=0.0,
                           require_unique_ground_state=False)
    assert abs(spectral.tau - 1.0) <= 1e-12
    return spectral


def _state_with_weights(spectral, weights):
    w = np.zeros(spectral.dim)
    w[:len(weights)] = weights
    return spectral.eigenvectors @ np.sqrt(w).astype(complex)


@pytest.fixture(scope="module")
def small_approx():
    return build_fourier_approx(0.15, 0.02)


# --- J sampling ----------------------------------------------------------------

def test_sample_j_degenerate_distribution():
    coeffs = np.zeros(5, dtype=complex)
    coeffs[2] = 0.5
    approx = FourierApprox(d=2, delta=0.1, epsilon=0.1, coefficients=coeffs,
                           phases=np.angle(coeffs), total_weight=0.5)
    rng = np.random.default_rng(0)
    assert all(sample_J(approx, rng) == 0 for _ in range(50))
    assert sample_j_counts(approx, 50, rng).tolist() == [0, 0, 50, 0, 0]


def test_sample_j_symmetry(small_approx):
    probs = small_approx.abs_coefficients / small_approx.total_weight
    assert np.allclose(probs, probs[::-1], atol=1e-12)


def test_sample_j_chi_square(small_approx):
    rng = np.random.default_rng(11)
    n = 10 ** 5
    js = sample_j_batch(small_approx, n, rng)
    counts = np.bincount(js + small_approx.d, minlength=2 * small_approx.d + 1)
    probs = small_approx.abs_coefficients / small_approx.total_weight
    keep = probs * n >= 5  # chi-square validity: expected count at least 5
    chi = stats.chisquare(counts[keep], probs[keep] / probs[keep].sum() * counts[keep].sum())
    assert chi.pvalue >= 1e-3


def test_sample_j_mean_abs(small_approx):
    rng = np.random.default_rng(12)
    n = 10 ** 5
    js = sample_j_batch(small_approx, n, rng)
    probs = small_approx.abs_coefficients / small_approx.total_weight
    expected = float(np.sum(np.abs(small_approx.js) * probs))
    var = float(np.sum(small_approx.js.astype(float) ** 2 * probs)) - expected ** 2
    assert abs(np.abs(js).mean() - expected) <= 3 * math.sqrt(var / n)


def test_sample_j_batch_matches_full_size_alias_draw(small_approx):
    n = 3 * SAMPLE_BLOCK + 5
    ref = np.random.default_rng(13)
    accept, alias = small_approx.alias_tables
    cell = ref.integers(0, accept.size, size=n)
    keep = ref.random(n) < accept[cell]
    want = np.where(keep, cell, alias[cell]) - small_approx.d
    assert np.array_equal(sample_j_batch(small_approx, n, np.random.default_rng(13)),
                          want)


# --- G and G2 -------------------------------------------------------------------

def test_g_estimator_formula(small_approx):
    val = g_estimator(small_approx, 0.3, 0, 1 + 1j)
    theta0 = small_approx.phase(0)
    assert val == pytest.approx(small_approx.total_weight * (1 + 1j)
                                * np.exp(1j * theta0))
    assert abs(val) <= math.sqrt(2) * small_approx.total_weight + 1e-12


def test_g_estimator_exhaustive_unbiased(small_approx, rng):
    spectral = _spectral_at([-0.6, -0.1, 0.45])
    phi0 = _state_with_weights(spectral, [0.5, 0.3, 0.2])
    a = small_approx
    x = 0.23
    # route 1: estimator-weighted sum over the exhaustive (j, z) distribution,
    # with E[Z_j] taken from the literal circuit law
    total = 0.0 + 0.0j
    probs = a.abs_coefficients / a.total_weight
    for idx, j in enumerate(a.js):
        dist = outcome_distribution_1d(spectral, phi0, int(j))
        ez = (dist["X"][0] - dist["X"][1]) + 1j * (dist["Y"][0] - dist["Y"][1])
        total += probs[idx] * g_estimator(a, x, int(j), ez)
    # route 2: direct Fourier-coefficient sum
    direct = acdf_exact(a, spectral, phi0, x)
    assert abs(total - direct) <= 1e-10


def test_g_estimator_unbiased_for_weighted_acdf(small_approx, rng):
    """With shots from the observable-inserted circuit, the exhaustive mean of
    G(x) reproduces the O-weighted ACDF coefficient sum."""
    from gspe.hadamard import outcome_distribution_O
    spectral = _spectral_at([-0.5, 0.1, 0.4])
    phi0 = _state_with_weights(spectral, [0.45, 0.3, 0.25])
    o_mat = random_unitary(rng, spectral.dim)
    a = small_approx
    x = 0.31
    probs = a.abs_coefficients / a.total_weight
    total = 0.0 + 0.0j
    for idx, j in enumerate(a.js):
        dist = outcome_distribution_O(spectral, phi0, o_mat, int(j))
        ez = (dist["X"][0] - dist["X"][1]) + 1j * (dist["Y"][0] - dist["Y"][1])
        total += probs[idx] * g_estimator(a, x, int(j), ez)
    assert abs(total - acdf_weighted_exact(a, spectral, phi0, o_mat, x)) <= 1e-10


def test_g_estimator_empirical_variance(small_approx):
    spectral = _spectral_at([-0.5, 0.2])
    phi0 = _state_with_weights(spectral, [0.6, 0.4])
    a = small_approx
    rng = np.random.default_rng(21)
    n = 10 ** 5
    js = sample_j_batch(a, n, rng)
    e_table = expectation_table_1d(spectral, phi0, a.d)
    zs = draw_block_xy(outcome_law(e_table), js + a.d, 1.0, rng)
    values = g_estimator(a, 0.1, js, zs)
    var = np.mean(np.abs(values - values.mean()) ** 2)
    assert var <= 2.0 * a.total_weight ** 2


def test_g2_estimator_formula(small_approx):
    a = small_approx
    val = g2_estimator(a, 0.0, 0.0, 0, 0, 1 + 1j)
    assert val == pytest.approx(a.total_weight ** 2 * (1 + 1j)
                                * np.exp(2j * a.phase(0)))
    assert abs(val) <= math.sqrt(2) * a.total_weight ** 2 + 1e-12


def test_g2_exhaustive_unbiased_commuting(small_approx):
    """Commuting observable at (x, x): the exhaustive two-time mean collapses
    to the eigen-sum sum_k p_k O_k F(x - tau lambda_k)^2 (each time index
    contributes one factor of F)."""
    from gspe.fourier import evaluate_coefficients
    spectral = _spectral_at([-0.7, -0.2, 0.3])
    weights = np.zeros(spectral.dim)
    weights[:3] = [0.4, 0.35, 0.25]
    phi0 = spectral.eigenvectors @ np.sqrt(weights).astype(complex)
    o_diag = np.array([1.0, -1.0, 1.0, -1.0])
    o_mat = spectral.eigenvectors @ np.diag(o_diag) @ spectral.eigenvectors.conj().T
    a = small_approx
    x = -0.05
    table = expectation_table_2d(spectral, phi0, o_mat, a.d)
    probs = a.abs_coefficients / a.total_weight
    phases = np.exp(1j * (a.phases + a.js * x))
    exhaustive = a.total_weight ** 2 * np.einsum(
        "i,j,ij,i,j->", probs, probs, table, phases, phases)
    f_at = evaluate_coefficients(a.coefficients,
                                 x - spectral.scaled_eigenvalues)
    eigen_sum = float(np.sum(weights * o_diag * f_at ** 2))
    assert abs(exhaustive - eigen_sum) <= 1e-10
    assert abs(acdf_2d_exact(a, spectral, phi0, o_mat, x, x)
               - eigen_sum) <= 1e-10


def test_g2_two_route_unbiasedness_noncommuting(small_approx, rng):
    """Exhaustive estimator-weighted mean of G2 at (x, y), with per-(j, j')
    shot laws taken from the literal circuit, against the direct
    coefficient-sum route, for a non-commuting unitary observable."""
    from gspe.hadamard import outcome_distribution_2d
    spectral = _spectral_at([-0.55, 0.05, 0.5])
    phi0 = _state_with_weights(spectral, [0.5, 0.2, 0.3])
    o_mat = random_unitary(rng, spectral.dim)
    a = small_approx
    x, y = 0.17, -0.32
    probs = a.abs_coefficients / a.total_weight
    phases_x = np.exp(1j * (a.phases + a.js * x))
    phases_y = np.exp(1j * (a.phases + a.js * y))
    total = 0.0 + 0.0j
    for ix, j in enumerate(a.js):
        for iy, j2 in enumerate(a.js):
            dist = outcome_distribution_2d(spectral, phi0, o_mat, int(j), int(j2))
            ez = (dist["X"][0] - dist["X"][1]) \
                + 1j * (dist["Y"][0] - dist["Y"][1])
            total += probs[ix] * probs[iy] * a.total_weight ** 2 \
                * ez * phases_x[ix] * phases_y[iy]
    direct = acdf_2d_exact(a, spectral, phi0, o_mat, x, y)
    assert abs(total - direct) <= 1e-10


def test_g2_empirical_variance(small_approx):
    spectral = _spectral_at([-0.4, 0.1])
    phi0 = _state_with_weights(spectral, [0.5, 0.5])
    o_mat = random_unitary(np.random.default_rng(3), spectral.dim)
    a = small_approx
    rng = np.random.default_rng(31)
    n = 10 ** 5
    j1 = sample_j_batch(a, n, rng)
    j2 = sample_j_batch(a, n, rng)
    table = expectation_table_2d(spectral, phi0, o_mat, a.d)
    zs = draw_block_xy(outcome_law(table).reshape(-1, 2),
                       (j2 + a.d) * (2 * a.d + 1) + j1 + a.d, 1.0, rng)
    values = g2_estimator(a, 0.2, 0.2, j1, j2, zs)
    var = np.mean(np.abs(values - values.mean()) ** 2)
    assert var <= 2.0 * a.total_weight ** 4


def _replay_pool(approx, table, n_groups, group_size, rng, norms=None, alpha=1.0):
    """Per-shot arrays (J, [J',] Z) of a pool drawn as the pipelines draw it,
    with the public samplers: per group, the last-index counts
    (``rng.multinomial``) laid out in cell order; then per chunk of the group,
    J for a two-time table, then all X, then all Y, from the cell law at flat
    cell j + d or (j' + d)(2d + 1) + (j + d)."""
    d = approx.d
    law = outcome_law(table, norms, alpha)
    law = law.reshape(-1, law.shape[-1])
    probs = approx.abs_coefficients / approx.total_weight
    parts = []
    for _ in range(n_groups):
        last = np.repeat(approx.js, rng.multinomial(group_size, probs))
        for chunk in sample_blocks(group_size):
            index, cells = [last[chunk]], last[chunk] + d
            if table.ndim == 2:
                index.insert(0, sample_j_batch(approx, cells.size, rng))
                cells = cells * (2 * d + 1) + index[0] + d
            zs = draw_block_xy(law, cells, alpha, rng)
            parts.append((*index, zs))
    return [np.concatenate(column) for column in zip(*parts)]


def _per_shot_pool(approx, table, n_groups, group_size, rng, norms=None, alpha=1.0):
    """The reference pool the count path must match in law: every shot draws
    J (and J') by :func:`sample_j_batch` and then X + iY, one shot after
    another; returns the sums S[g, j + d] over group g and last index j of
    the values z, times lead[J + d] = W e^{i(theta_J + J x)} at x = 0.3 for
    a two-time table."""
    d = approx.d
    law = outcome_law(table, norms, alpha)
    law = law.reshape(-1, law.shape[-1])
    n = n_groups * group_size
    index = [sample_j_batch(approx, n, rng) for _ in range(table.ndim)]
    cells = index[-1] + d
    if table.ndim == 2:
        cells = cells * (2 * d + 1) + index[0] + d
    zs = draw_block_xy(law, cells, alpha, rng)
    if table.ndim == 2:
        zs *= approx.total_weight * approx.kernel(0.3)[index[0] + d]
    flat = np.arange(n) // group_size * (2 * d + 1) + index[-1] + d
    size = n_groups * (2 * d + 1)
    return (np.bincount(flat, zs.real, size)
            + 1j * np.bincount(flat, zs.imag, size)).reshape(n_groups, -1)


def _pool_case(kind, d):
    """(spectral, table, norms, alpha, second) of a small pool of ``kind``;
    second[j' + d] is E[X^2] = E[Y^2] of a shot at first evolution j': 1 for
    +-1 shots, alpha^2 p_succ(j') for the block circuit.  The two-time
    tables are not symmetric, so swapping J and J' or the law's major axis
    moves the mean of S."""
    spectral = _spectral_at([-0.4, 0.1])
    phi0 = _state_with_weights(spectral, [0.5, 0.5])
    gen = np.random.default_rng(3)
    second = np.ones(2 * d + 1)
    if kind == "one-time":
        return spectral, expectation_table_1d(spectral, phi0, d), None, 1.0, second
    if kind == "two-time":
        table = expectation_table_2d(spectral, phi0,
                                     random_unitary(gen, spectral.dim), d)
        return spectral, table, None, 1.0, second
    o_mat = random_hermitian(gen, spectral.dim, norm=0.9)
    table = expectation_table_2d(spectral, phi0, o_mat, d)
    alpha = 1.2
    nsq = block_norm_table(spectral, phi0, o_mat, d)
    second = 0.5 * (alpha ** 2 + nsq)  # alpha^2 p_succ
    return spectral, table, nsq, alpha, second


@pytest.mark.parametrize("kind", ["one-time", "two-time", "block"])
def test_weighted_stage_replays_public_draws(small_approx, kind):
    """A median-of-means stage keeps only per-group sums of its pool; every
    group mean and the budget equal the per-shot formulas on the same
    draws, with groups of several sampling chunks."""
    a, d, x = small_approx, small_approx.d, 0.3
    spectral, table, norms, alpha, _ = _pool_case(kind, d)
    tau = spectral.tau
    n_g, k = 3, 2 * SAMPLE_BLOCK + 7
    *index, zs = _replay_pool(a, table, n_g, k, np.random.default_rng(41),
                              norms, alpha)
    phase = a.total_weight * np.exp(1j * (a.phases + a.js * x))
    values = zs * np.prod([phase[js + d] for js in index], axis=0)
    times = sum(np.abs(js) for js in index) * tau
    budget = EvolutionBudget()
    got = group_means(a, outcome_law(table, norms, alpha), x, n_g, k,
                      np.random.default_rng(41), budget, tau, alpha=alpha)
    assert np.abs(got - values.reshape(n_g, k).mean(axis=1)).max() <= 1e-12
    assert budget.shots == n_g * k
    assert budget.max_time == float(times.max())
    assert abs(budget.total_time - float(times.sum())) <= 1e-12 * times.sum()


POOL_BYTES_PER_SHOT = 96  # the largest block chunk peaks near 83 B per shot


@pytest.mark.parametrize("kind", ["one-time", "two-time", "block"])
def test_pool_holds_one_chunk_of_shot_temporaries(small_approx, kind):
    """_pool_sums' peak allocation (tracemalloc, numpy's buffers included)
    stays below POOL_BYTES_PER_SHOT per shot of its largest chunk,
    2 * SAMPLE_BLOCK - 1 shots, whatever the group size: groups of 4 and 16
    chunks peak within 10% of each other, and a group of one chunk of the
    largest size stays below the same bound."""
    a = small_approx
    spectral, table, norms, alpha, _ = _pool_case(kind, a.d)
    law = outcome_law(table, norms, alpha)
    lead = a.total_weight * a.kernel(0.3) if table.ndim == 2 else None

    def peak(group_size):
        tracemalloc.start()
        try:
            estimators._pool_sums(a, law, 1, group_size, np.random.default_rng(5),
                                  EvolutionBudget(), spectral.tau, lead=lead,
                                  alpha=alpha)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grouped = [peak(chunks * SAMPLE_BLOCK) for chunks in (4, 16)]
    assert max(grouped) <= 1.1 * min(grouped)
    largest = peak(2 * SAMPLE_BLOCK - 1)
    assert max(grouped + [largest]) < POOL_BYTES_PER_SHOT * 2 * SAMPLE_BLOCK


@pytest.mark.parametrize("p, q", [(0, 1), (0, 0)])
def test_1rdm_stage_replays_public_draws(variant2q, rng, p, q):
    """A 1RDM entry's weighted value is the lower median over groups of
    sum_k u_k times the group means of Majorana product k, u_k = weight *
    phase / 4, each product drawn by the public pool from the weighted
    stream of its position in the expansion; identity products add 1/4.
    A diagonal entry's sum u_k O_k is Hermitian, so only its real part is
    kept; an off-diagonal entry keeps both parts."""
    _, s = variant2q
    phi0 = mixed_with_noise(s.ground_state(),
                            rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    n_g, k = 5, 3001
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=43, n_g=n_g, k=k)
    report = estimate_1rdm_entry(s, phi0, p, q, cfg)
    inter = report.intermediate
    a = build_fourier_approx(property_delta(s.tau, inter["gamma"]),
                             cfg.eta * (cfg.epsilon / 4.0) / 8.0)
    assert (a.delta, a.d) == (inter["delta_prop"], inter["d_prop"])
    x = inter["x_good"]
    lead = a.total_weight * a.kernel(x)
    combos = [(1.0, 2 * p, 2 * q), (-1j, 2 * p + 1, 2 * q),
              (1j, 2 * p, 2 * q + 1), (1.0, 2 * p + 1, 2 * q + 1)]
    values, identity, products = np.zeros(n_g, dtype=complex), 0.0, 0
    for index, (weight, a_idx, b_idx) in enumerate(combos):
        if a_idx == b_idx:
            identity += weight / 4.0
            continue
        phase, string = majorana_product(a_idx, b_idx, 2)
        sums = estimators._pool_sums(
            a, outcome_law(expectation_table_2d(s, phi0, string, a.d)), n_g, k,
            stage_rng(cfg.seed, "weighted", index=index), EvolutionBudget(),
            s.tau, lead=lead)
        values += weight * phase / 4.0 * batch_means(a, sums, x, k)
        products += 1
    want = median_of_means(values, n_g, 1)
    assert inter["real_target"] == (p == q)
    if p == q:
        want = complex(want.real)
    assert abs(inter["p0o0_bar"] - want) <= 1e-12
    assert abs(report.value - (want / inter["p0_bar"] + identity)) <= 1e-12
    assert report.shots_used == (inter["n_s"] * inter["n_b"] + n_g * k
                                 + products * n_g * k)


def test_gse_sums_replay_public_draws(small_approx):
    """The GSE pool's per-batch sums equal those of the per-shot arrays drawn
    by the public samplers, over many one-chunk batches."""
    spectral = _spectral_at([-0.4, 0.1])
    phi0 = _state_with_weights(spectral, [0.5, 0.5])
    n_s, n_b = SAMPLE_BLOCK // 2 + 3, 7
    cfg = EstimationConfig(epsilon=small_approx.delta, eta=8 * small_approx.epsilon,
                           nu=0.1, n_s=n_s, n_b=n_b)
    gse = estimate_gse(spectral, phi0, cfg, rng=np.random.default_rng(41))
    a, d = gse.approx, gse.approx.d
    js, zs = _replay_pool(a, expectation_table_1d(spectral, phi0, d), n_b, n_s,
                          np.random.default_rng(41))
    flat = np.arange(n_b).repeat(n_s) * (2 * d + 1) + (js + d)
    want = (np.bincount(flat, weights=zs.real, minlength=n_b * (2 * d + 1))
            + 1j * np.bincount(flat, weights=zs.imag, minlength=n_b * (2 * d + 1)))
    assert np.abs(gse.sums - want.reshape(n_b, 2 * d + 1)).max() <= 1e-12
    times = np.abs(js) * spectral.tau
    assert gse.budget.shots == n_s * n_b
    assert gse.budget.max_time == float(times.max())
    assert abs(gse.budget.total_time - float(times.sum())) <= 1e-12 * times.sum()


def _exact_sum_moments(approx, table, second, group_size):
    """Mean of S[g, j' + d] and the variances of its real and imaginary
    parts, from the tables: a shot lands at last index j' with probability
    p_j', and given (J, J') its value lead[J + d] (X + iY) (lead = 1 on a
    one-time table) has independent X and Y with E[X + iY] = table[J, J']
    and E[X^2] = E[Y^2] = second[J' + d]."""
    p = approx.abs_coefficients / approx.total_weight
    if table.ndim == 1:
        lead, e, q = np.ones(1), table[None, :], np.ones(1)
    else:
        lead, e, q = approx.total_weight * approx.kernel(0.3), table, p
    mean = (q * lead) @ e
    # E[Re(lead z)^2] = |lead|^2 E[X^2] - 2 Re(lead) Im(lead) E[X] E[Y], and
    # E[Im(lead z)^2] the same with + (E[X^2] = E[Y^2])
    power = ((q * np.abs(lead) ** 2)[:, None] * second).sum(axis=0)
    cross = ((2 * q * lead.real * lead.imag)[:, None] * e.real * e.imag).sum(axis=0)
    var_re = group_size * (p * (power - cross) - (p * mean.real) ** 2)
    var_im = group_size * (p * (power + cross) - (p * mean.imag) ** 2)
    return group_size * p * mean, var_re, var_im


@pytest.mark.parametrize("kind", ["one-time", "two-time", "block"])
def test_pool_sums_have_the_exact_mean(kind):
    """Over many groups, each cell of S averages to k p_j' E[lead z | j'],
    computed from the tables, within 5 standard errors, and the standardized
    residuals of all cells pass a chi-square test."""
    a = build_fourier_approx(0.4, 0.05)
    spectral, table, norms, alpha, second = _pool_case(kind, a.d)
    n_g, k = 400, 500
    lead = a.total_weight * a.kernel(0.3) if table.ndim == 2 else None
    sums = estimators._pool_sums(a, outcome_law(table, norms, alpha), n_g, k,
                                 np.random.default_rng(8), EvolutionBudget(),
                                 spectral.tau, lead=lead, alpha=alpha)
    mean, var_re, var_im = _exact_sum_moments(a, table, second, k)
    keep = a.abs_coefficients / a.total_weight * k * n_g >= 100
    resid = np.concatenate([
        (sums.real.mean(axis=0) - mean.real)[keep] / np.sqrt(var_re[keep] / n_g),
        (sums.imag.mean(axis=0) - mean.imag)[keep] / np.sqrt(var_im[keep] / n_g)])
    assert np.abs(resid).max() <= 5.0
    assert stats.chi2.sf(float(resid @ resid), resid.size) >= 1e-4


@pytest.mark.parametrize("kind", ["one-time", "two-time", "block"])
def test_pool_sums_match_per_shot_pool_in_law(kind):
    """Group means at x from the count path and from the per-shot reference
    pool (:func:`_per_shot_pool`) pass two-sample KS tests, real and
    imaginary parts, as do the sums of the three most likely cells."""
    a = build_fourier_approx(0.4, 0.05)
    spectral, table, norms, alpha, _ = _pool_case(kind, a.d)
    n_g, k = 300, 400
    lead = a.total_weight * a.kernel(0.3) if table.ndim == 2 else None
    counted = estimators._pool_sums(a, outcome_law(table, norms, alpha), n_g, k,
                                    np.random.default_rng(9), EvolutionBudget(),
                                    spectral.tau, lead=lead, alpha=alpha)
    per_shot = _per_shot_pool(a, table, n_g, k, np.random.default_rng(10),
                              norms, alpha)
    top = np.argsort(a.abs_coefficients)[-3:]
    columns = [lambda s: batch_means(a, s, -0.2, k)] + [
        (lambda s, c=c: s[:, c]) for c in top]
    for column in columns:
        for part in (np.real, np.imag):
            left, right = part(column(counted)), part(column(per_shot))
            assert stats.ks_2samp(left, right).pvalue >= 1e-4


# --- aggregation -----------------------------------------------------------------

def test_median_of_means_constant():
    vals = np.full(12, 2.5 - 1j)
    assert median_of_means(vals, 3, 4) == 2.5 - 1j


def test_median_of_means_single_group_is_mean(rng):
    vals = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert median_of_means(vals, 1, 8) == pytest.approx(vals.mean())


def test_median_of_means_poisoned_group(rng):
    clean = rng.normal(loc=1.0, scale=0.1, size=40)
    poisoned = clean.copy()
    poisoned[:8] = 1e6  # one whole group out of five
    est = median_of_means(poisoned.astype(complex), 5, 8)
    sigma = 0.1 / math.sqrt(8)
    assert abs(est.real - 1.0) <= 2 * sigma + abs(clean.mean() - 1.0)


def test_median_of_means_length_check():
    with pytest.raises(ValueError):
        median_of_means(np.ones(7), 2, 4)


def test_median_of_means_even_lower_median():
    vals = np.concatenate([np.zeros(2), np.ones(2), 2 * np.ones(2),
                           3 * np.ones(2)]).astype(complex)
    # four groups of two with means 0, 1, 2, 3: lower median is 1
    assert median_of_means(vals, 4, 2) == 1.0


# --- certify and invert ----------------------------------------------------------

def _pool(approx, spectral, phi0, n, seed):
    rng = np.random.default_rng(seed)
    js = sample_j_batch(approx, n, rng)
    e_table = expectation_table_1d(spectral, phi0, approx.d)
    return js, draw_block_xy(outcome_law(e_table), js + approx.d, 1.0, rng)


def test_certify_two_sides():
    eta, delta = 0.5, 0.05
    a = build_fourier_approx(delta, eta / 8)
    n_s, n_b = certify_schedule(a.total_weight, eta, 0.05, delta)
    left_mass = _spectral_at([-0.9])     # all mass far left of x = 0
    phi_left = left_mass.eigenvectors @ np.sqrt(
        np.where(np.isclose(left_mass.scaled_eigenvalues, -0.9), 1.0, 0.0)
    ).astype(complex)
    right_mass = _spectral_at([0.9])
    phi_right = right_mass.eigenvectors @ np.sqrt(
        np.where(np.isclose(right_mass.scaled_eigenvalues, 0.9), 1.0, 0.0)
    ).astype(complex)
    hits_left = hits_right = 0
    for rep in range(100):
        js, zs = _pool(a, left_mass, phi_left, n_s * n_b, 1000 + rep)
        hits_left += certify(a, js, zs, 0.0, eta, n_s, n_b) == 0
        js, zs = _pool(a, right_mass, phi_right, n_s * n_b, 2000 + rep)
        hits_right += certify(a, js, zs, 0.0, eta, n_s, n_b) == 1
    assert hits_left >= 95
    assert hits_right >= 95


def test_certify_gray_zone_any_answer():
    eta, delta = 0.5, 0.05
    a = build_fourier_approx(delta, eta / 8)
    n_s, n_b = certify_schedule(a.total_weight, eta, 0.05, delta)
    spectral = _spectral_at([-0.4, 0.6])
    # mass 0.75 eta at the left level puts C(0) in the gray zone
    phi = _state_with_weights(spectral, [0.375, 0.625])
    js, zs = _pool(a, spectral, phi, n_s * n_b, 5)
    assert certify(a, js, zs, 0.0, eta, n_s, n_b) in (0, 1)


def test_certify_insufficient_samples(small_approx):
    with pytest.raises(EstimationError):
        certify(small_approx, np.zeros(10, dtype=int),
                np.ones(10, dtype=complex), 0.0, 0.5, 100, 10)


def test_invert_cdf_single_level():
    eta, delta = 0.5, 0.02
    a = build_fourier_approx(delta, eta / 8)
    n_s, n_b = certify_schedule(a.total_weight, eta, 0.1, delta)
    spectral = _spectral_at([0.3])
    phi = spectral.eigenvectors @ np.sqrt(
        np.where(np.isclose(spectral.scaled_eigenvalues, 0.3), 1.0, 0.0)
    ).astype(complex)
    hits = 0
    for rep in range(50):
        js, zs = _pool(a, spectral, phi, n_s * n_b, 3000 + rep)
        x_star = invert_cdf(a, js, zs, eta, delta, n_s, n_b)
        hits += abs(x_star - 0.3) <= delta
    assert hits >= 45


def test_invert_cdf_two_levels():
    eta, delta = 0.5, 0.02
    a = build_fourier_approx(delta, eta / 8)
    n_s, n_b = certify_schedule(a.total_weight, eta, 0.1, delta)
    spectral = _spectral_at([-0.5, 0.5])
    phi = _state_with_weights(spectral, [0.6, 0.4])
    js, zs = _pool(a, spectral, phi, n_s * n_b, 99)
    x_star = invert_cdf(a, js, zs, eta, delta, n_s, n_b)
    assert abs(x_star - (-0.5)) <= 2 * delta


@pytest.mark.parametrize("delta", [0.3, 0.05, 0.01, 0.002])
def test_bracket_iteration_bound(delta):
    assert bracket_iterations(delta) <= \
        math.ceil(math.log2((2 * math.pi / 3) / delta)) + 2


@pytest.mark.parametrize("policy", ["random", "right", "left"])
def test_bisection_accuracy_is_four_thirds_delta(monkeypatch, policy):
    """An adversarial Certify that keeps to its evidence semantics (0 where
    x >= x0 + delta, 1 where x < x0 - delta, either answer in between)
    drives the search past delta from the crossing x0, but never past
    (4/3) delta."""
    delta = 0.05
    rng = np.random.default_rng(5)
    choose = {"random": lambda: int(rng.integers(2)), "right": lambda: 1,
              "left": lambda: 0}[policy]

    def vote(approx, sums, x, eta, n_s):
        if x >= x0 + delta:
            return 0
        if x < x0 - delta:
            return 1
        return choose()

    monkeypatch.setattr(estimators, "_certify_sums", vote)
    errors = []
    for x0 in np.linspace(-math.pi / 3, math.pi / 3, 1001):
        errors.append(abs(estimators._invert_sums(None, None, 0.5, delta, 1) - x0))
    assert max(errors) <= 4.0 / 3.0 * delta
    assert max(errors) > 1.1 * delta


def test_property_delta_is_the_good_point_margin_below_its_cap():
    """delta_prop = tau*gamma/3 wherever that is at most 0.8 MAX_DELTA, and
    over the whole range of tau*gamma it lies in [tau*gamma/5, MAX_DELTA),
    so the Fourier construction takes it and no degree grows past the one
    at tau*gamma/5."""
    tau = 0.7
    capped = 0
    for tau_gamma in np.linspace(1e-3, 2 * math.pi / 3, 401):
        gamma = tau_gamma / tau
        delta = property_delta(tau, gamma)
        assert tau * gamma / 5.0 <= delta < MAX_DELTA
        if tau * gamma / 3.0 <= 0.8 * MAX_DELTA:
            assert delta == tau * gamma / 3.0
        else:
            capped += 1
            assert delta == 0.8 * MAX_DELTA
    assert capped > 0
    # a one-qubit Z has tau*gamma = 2 pi/3: its margin 2 pi/9 exceeds MAX_DELTA
    s = diagonalize(build_operator([(1.0, "Z")]))
    assert s.tau * s.gap / 3.0 > MAX_DELTA
    assert build_fourier_approx(property_delta(s.tau, s.gap), 0.01).d > 0


# --- EstimateGSE ------------------------------------------------------------------

def test_estimate_gse_z_plus():
    s = diagonalize(build_operator([(1.0, "Z")]))
    plus = np.array([1, 1]) / math.sqrt(2)
    hits = 0
    for seed in range(50):
        cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=seed)
        hits += abs(estimate_gse(s, plus, cfg).value - (-1.0)) <= 0.05
    assert hits >= 45


def test_estimate_gse_full_overlap_high_confidence(tfim3):
    _, s = tfim3
    psi0 = s.ground_state()
    eps = s.gap / 8
    hits = 0
    for seed in range(100):
        cfg = EstimationConfig(epsilon=eps, eta=0.9, nu=0.01, seed=seed)
        hits += abs(estimate_gse(s, psi0, cfg).value - s.eigenvalues[0]) <= eps
    assert hits >= 99


def test_estimate_gse_budget_bound(tfim3):
    _, s = tfim3
    cfg = EstimationConfig(epsilon=s.gap / 10, eta=0.5, nu=0.1, seed=1)
    report = estimate_gse(s, s.ground_state(), cfg)
    assert report.budget.max_time <= report.intermediate["d_gse"] * s.tau + 1e-9
    assert report.shots_used == report.intermediate["n_s"] \
        * report.intermediate["n_b"]


# --- good point -------------------------------------------------------------------

def test_good_point_arithmetic():
    # tau = 1, lambda0 = 0, lambda1 = 1, eps = 0.1: window is (0.1, 0.9)
    assert good_point(0.05, 1.0, 1.0, epsilon=0.1) == pytest.approx(0.55)
    assert good_point(-0.1, 1.0, 1.0, epsilon=0.1) == pytest.approx(0.4)
    assert 0.1 < good_point(0.05, 1.0, 1.0, epsilon=0.1) < 0.9
    assert 0.1 < good_point(-0.1, 1.0, 1.0, epsilon=0.1) < 0.9


def test_good_point_boundary_epsilon():
    gamma = 1.0
    for eps in (0.24, 0.249, 0.2499):
        x_good = good_point(0.0, 1.0, gamma, epsilon=eps)
        assert eps < x_good < 1.0 - eps  # strictly inside for exact x* = 0


def test_good_point_rejects_large_epsilon():
    with pytest.raises(PreconditionError):
        good_point(0.0, 1.0, 1.0, epsilon=0.3)


# --- overlap estimation --------------------------------------------------------------

def test_estimate_overlap_full(tfim3):
    _, s = tfim3
    cfg = EstimationConfig(epsilon=0.05, eta=0.9, nu=0.1, seed=2)
    x_good = s.tau * (s.eigenvalues[0] + s.gap / 2)
    p0_bar = estimate_overlap(s, s.ground_state(), x_good, cfg)
    assert abs(p0_bar - 1.0) <= 0.05


def test_estimate_overlap_half():
    s = diagonalize(build_operator([(1.0, "Z")]))
    plus = np.array([1, 1]) / math.sqrt(2)
    eta, eps = 0.5, 0.05
    hits = 0
    for seed in range(50):
        cfg = EstimationConfig(epsilon=eps, eta=eta, nu=0.1, seed=seed)
        x_good = s.tau * (-1.0 + s.gap / 2)
        hits += abs(estimate_overlap(s, plus, x_good, cfg) - 0.5) <= eta * eps
    assert hits >= 45


def test_estimate_overlap_random_instance(rng, tfim3):
    _, s = tfim3
    noise = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
    phi0 = mixed_with_noise(s.ground_state(), noise, 0.55)
    p0 = overlaps(phi0, s)[0]
    cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=9)
    x_good = s.tau * (s.eigenvalues[0] + s.gap / 2)
    assert abs(estimate_overlap(s, phi0, x_good, cfg) - p0) <= 0.5 * 0.05


# --- pipelines -------------------------------------------------------------------

def test_commutative_identity_observable(tfim3):
    _, s = tfim3
    cfg = EstimationConfig(epsilon=0.05, eta=0.9, nu=0.1, seed=4)
    report = estimate_gsprop_commutative(s, s.ground_state(), np.eye(s.dim), cfg)
    assert abs(report.value.real - 1.0) <= 0.05


def test_commutative_z_on_z():
    s = diagonalize(build_operator([(1.0, "Z")]))
    plus = np.array([1, 1]) / math.sqrt(2)
    hits = 0
    for seed in range(10):
        cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=seed)
        report = estimate_gsprop_commutative(s, plus, np.diag([1.0, -1.0]), cfg)
        hits += abs(report.value.real - (-1.0)) <= 0.05
    assert hits >= 9


def test_commutative_diagonal_ising(rng):
    # pinning field keeps the ferromagnetic ground state unique
    op = build_operator([(-1.0, "ZZI"), (-1.0, "IZZ"), (-0.3, "ZII")])
    s = diagonalize(op)
    o_mat = build_operator([(1.0, "ZZI")]).matrix()
    psi0 = s.ground_state()
    exact = float((psi0.conj() @ o_mat @ psi0).real)
    noise = rng.normal(size=8) + 1j * rng.normal(size=8)
    phi0 = mixed_with_noise(psi0, noise, 0.6)
    hits = 0
    for seed in range(10):
        cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=seed)
        report = estimate_gsprop_commutative(s, phi0, o_mat, cfg)
        hits += abs(report.value.real - exact) <= 0.05
    assert hits >= 9


def test_commutative_rejects_noncommuting(tfim3):
    op, s = tfim3
    with pytest.raises(PreconditionError):
        cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1)
        estimate_gsprop_commutative(s, s.ground_state(),
                                    build_operator([(1.0, "ZII")]).matrix(), cfg)


class _ReachedSampling(Exception):
    pass


def _no_sampling(*args, **kwargs):
    raise _ReachedSampling


@pytest.mark.parametrize("kind", ["commuting-pauli", "noncommuting-pauli", "dense",
                                  "degenerate-swap"])
def test_commutation_check_decision_and_message(tfim3, rng, monkeypatch, kind):
    """The check works in the eigenbasis; its decision and message are those
    of the dense ||H O - O H||_F, for signed-permutation and dense O.  The
    degenerate row swaps the two states of a repeated level: O commutes with
    H although V^H O V is not diagonal."""
    _, s = tfim3
    if kind == "degenerate-swap":
        # levels 0, 1, 1, 2 on |00>, |01>, |10>, |11>; SWAP exchanges |01>, |10>
        s = diagonalize(build_operator([(1.0, "II"), (-0.5, "ZI"), (-0.5, "IZ")]))
        o_mat = np.eye(4)[[0, 2, 1, 3]]
        o_eig = s.eigenvectors.conj().T @ o_mat @ s.eigenvectors
        assert np.abs(o_eig - np.diag(np.diag(o_eig))).max() > 0.5
    else:
        o_mat = {"commuting-pauli": kron_word("XXX"),  # the TFIM parity
                 "noncommuting-pauli": kron_word("ZII"),
                 "dense": random_unitary(rng, 8)}[kind]
    assert (observable(o_mat).columns is None) == (kind == "dense")
    h = (s.eigenvectors * s.eigenvalues) @ s.eigenvectors.conj().T
    comm = np.linalg.norm(h @ o_mat - o_mat @ h)
    commutes = comm <= COMMUTATION_TOL * max(1.0, np.linalg.norm(h))
    assert commutes == (kind in ("commuting-pauli", "degenerate-swap"))
    monkeypatch.setattr(estimators, "estimate_ratio", _no_sampling)
    cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1)
    if commutes:
        with pytest.raises(_ReachedSampling):
            estimate_gsprop_commutative(s, s.ground_state(), o_mat, cfg)
    else:
        with pytest.raises(PreconditionError, match=re.escape(f"({comm:.3e})")):
            estimate_gsprop_commutative(s, s.ground_state(), o_mat, cfg)


@pytest.mark.parametrize("pipeline", ["commutative", "general", "block"])
def test_wrong_size_observable_rejected_before_sampling(variant2q, monkeypatch,
                                                        pipeline):
    _, s = variant2q
    monkeypatch.setattr(estimators, "_pool_sums", _no_sampling)
    monkeypatch.setattr(hadamard, "phase_block", _no_sampling)
    cfg = EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1)
    o_mat = np.eye(8)
    with pytest.raises(DimensionMismatchError,
                       match=re.escape("operator shape (8, 8), expected (4, 4)")):
        if pipeline == "commutative":
            estimate_gsprop_commutative(s, s.ground_state(), o_mat, cfg)
        elif pipeline == "general":
            estimate_gsprop_general(s, s.ground_state(), o_mat, cfg)
        else:
            estimate_gsprop_block(s, s.ground_state(), embed_block(o_mat), cfg)


def test_general_identity(variant2q):
    _, s = variant2q
    cfg = EstimationConfig(epsilon=0.05, eta=0.9, nu=0.1, seed=6)
    report = estimate_gsprop_general(s, s.ground_state(), np.eye(4), cfg)
    assert abs(report.value.real - 1.0) <= 0.05


def test_general_matches_oracle(variant2q, rng):
    _, s = variant2q
    o_mat = build_operator([(1.0, "XI")]).matrix()
    psi0 = s.ground_state()
    exact = float((psi0.conj() @ o_mat @ psi0).real)
    phi0 = mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    hits = 0
    for seed in range(10):
        cfg = EstimationConfig(epsilon=0.05, eta=0.4, nu=0.1, seed=seed)
        report = estimate_gsprop_general(s, phi0, o_mat, cfg)
        hits += abs(report.value.real - exact) <= 0.05
        assert report.budget.max_time <= 2 * report.intermediate["d_prop"] \
            * s.tau + 1e-9
    assert hits >= 9


def test_cross_pipeline_consistency(rng):
    s = diagonalize(build_operator([(1.0, "ZZ"), (0.3, "ZI")]))
    o_mat = build_operator([(1.0, "IZ")]).matrix()  # commutes with H
    psi0 = s.ground_state()
    phi0 = mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4), 0.6)
    cfg = EstimationConfig(epsilon=0.04, eta=0.5, nu=0.1, seed=17)
    a = estimate_gsprop_commutative(s, phi0, o_mat, cfg)
    b = estimate_gsprop_general(s, phi0, o_mat, cfg)
    assert abs(a.value.real - b.value.real) <= 2 * 0.04


def test_block_matches_general_for_unitary(variant2q, rng):
    _, s = variant2q
    o_mat = build_operator([(1.0, "XI")]).matrix()
    psi0 = s.ground_state()
    phi0 = mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.05, eta=0.4, nu=0.1, seed=23)
    block = embed_block(o_mat, 1.0)
    a = estimate_gsprop_block(s, phi0, block, cfg)
    b = estimate_gsprop_general(s, phi0, o_mat, cfg)
    assert abs(a.value.real - b.value.real) <= 2 * 0.05


def test_block_alpha_scaling(variant2q, rng):
    _, s = variant2q
    o_mat = np.diag([1.0, -1.0, 1.0, -1.0])
    psi0 = s.ground_state()
    phi0 = mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.08, eta=0.4, nu=0.1, seed=29)
    r1 = estimate_gsprop_block(s, phi0, embed_block(o_mat, 1.0), cfg)
    r2 = estimate_gsprop_block(s, phi0, embed_block(o_mat, 2.0), cfg)
    assert abs(r1.value.real - r2.value.real) <= 2 * 0.08
    weighted_shots_1 = r1.shots_used - r1.intermediate["n_s"] \
        * r1.intermediate["n_b"] - r1.intermediate["n_g"] \
        * r1.intermediate["k_overlap"]
    weighted_shots_2 = r2.shots_used - r2.intermediate["n_s"] \
        * r2.intermediate["n_b"] - r2.intermediate["n_g"] \
        * r2.intermediate["k_overlap"]
    assert weighted_shots_2 / weighted_shots_1 == pytest.approx(4.0, rel=0.02)


@pytest.mark.parametrize("pipeline", ["commutative", "general", "block"])
def test_pipelines_share_the_overlap_stage(variant2q, rng, pipeline):
    _, s = variant2q
    o_mat = build_operator([(1.0, "XI" if pipeline != "commutative" else "II")]
                           ).matrix()
    phi0 = mixed_with_noise(s.ground_state(),
                            rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=31)
    if pipeline == "commutative":
        report = estimate_gsprop_commutative(s, phi0, o_mat, cfg)
    elif pipeline == "general":
        report = estimate_gsprop_general(s, phi0, o_mat, cfg)
    else:
        report = estimate_gsprop_block(s, phi0, embed_block(o_mat, 1.0), cfg)
    x_good = report.intermediate["x_good"]
    assert report.intermediate["p0_bar"] == estimate_overlap(
        s, phi0, x_good, cfg, nu=cfg.nu / 3)


@pytest.mark.parametrize("pipeline", ["commutative", "general", "block", "rdm",
                                      "rdm-diagonal", "qlss"])
def test_weighted_schedule_follows_the_shot_bound(variant2q, rng, pipeline):
    """The weighted stage draws mom_schedule's shots at the per-shot bound of
    its table: b W^2 one-time, b W^4 two-time, b alpha^2 W^4 block circuit;
    a 1RDM entry's m products share one stage at (m/16) b W^4.  b = 3/2
    bounds the real part alone, read for a Hermitian target (every row here
    but the off-diagonal 1RDM entry), b = 2 the complex value.  The overlap
    stage reads only its real part, at 3/2 W^2.  The weighted target is
    p_lo * epsilon/4, p_lo the overlap floor the record reports."""
    _, s = variant2q
    o_mat = build_operator([(1.0, "XI" if pipeline != "commutative" else "II")]
                           ).matrix()
    phi0 = mixed_with_noise(s.ground_state(),
                            rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=37)
    if pipeline.startswith("rdm"):
        # m non-identity Majorana products, each term of weight 1/4, drawn k
        # shots each per group of one stage at nu/3; identity products are free
        p, q, m, b = (0, 1, 4, 2.0) if pipeline == "rdm" else (0, 0, 2, 1.5)
        report = estimate_1rdm_entry(s, phi0, p, q, cfg)
        inter = report.intermediate
        w = inter["total_weight_prop"]
        n_o, k_o = mom_schedule(1.5 * w ** 2, cfg.eta, cfg.epsilon / 4.0,
                                cfg.nu / 3.0)
        n_g, k = mom_schedule((m / 16) * (b * w ** 4),
                              inter["p_lo"], cfg.epsilon / 4.0, cfg.nu / 3.0)
        assert inter["k_weighted"] == k
        assert (inter["n_g"], inter["k_overlap"]) == (n_o, k_o)
        assert report.shots_used == (inter["n_s"] * inter["n_b"] + n_o * k_o
                                     + m * n_g * k)
        return
    if pipeline == "qlss":
        # no energy stage; overlap and weighted stage each at nu/2
        inst = random_linear_system(2, 2.0, rng)
        report = qlss_estimate(inst, np.diag([1.0, -1.0]), cfg.epsilon, cfg.nu,
                               eta=cfg.eta, alpha=1.5, seed=cfg.seed)
        inter = report.intermediate
        assert inter["delta_prop"] == property_delta(inter["tau"], inter["gamma"])
        w = build_fourier_approx(inter["delta_prop"],
                                 cfg.eta * (cfg.epsilon / 4.0) / 8.0).total_weight
        n_o, k_o = mom_schedule(1.5 * w ** 2, cfg.eta, cfg.epsilon / 4.0,
                                cfg.nu / 2.0)
        n_g, k = mom_schedule(1.5 * 1.5 ** 2 * w ** 4, inter["p_lo"],
                              cfg.epsilon / 4.0, cfg.nu / 2.0)
        assert inter["k_weighted"] == k
        assert report.shots_used == n_o * k_o + n_g * k
        return
    if pipeline == "commutative":
        report = estimate_gsprop_commutative(s, phi0, o_mat, cfg)
    elif pipeline == "general":
        report = estimate_gsprop_general(s, phi0, o_mat, cfg)
    else:
        report = estimate_gsprop_block(s, phi0, embed_block(o_mat, 1.5), cfg)
    inter = report.intermediate
    w = inter["total_weight_prop"]
    bound = {"commutative": 1.5 * w ** 2, "general": 1.5 * w ** 4,
             "block": 1.5 * 1.5 ** 2 * w ** 4}[pipeline]
    n_o, k_o = mom_schedule(1.5 * w ** 2, cfg.eta, cfg.epsilon / 4.0, cfg.nu / 3.0)
    n_g, k = mom_schedule(bound, inter["p_lo"], cfg.epsilon / 4.0, cfg.nu / 3.0)
    assert inter["k_weighted"] == k
    assert (inter["n_g"], inter["k_overlap"]) == (n_o, k_o)
    assert report.shots_used == (inter["n_s"] * inter["n_b"] + n_o * k_o + n_g * k)


def _overlap_reading(monkeypatch, p0_bar):
    """Run the overlap stage as it is, then report ``p0_bar`` as its estimate."""
    real = estimators.estimate_overlap

    def reading(*args, **kwargs):
        real(*args, **kwargs)
        return p0_bar

    monkeypatch.setattr(estimators, "estimate_overlap", reading)


@pytest.mark.parametrize("p0_bar,p_lo", [
    (0.41, 0.4),       # p0_bar - 9 eta eps/32 = 0.39875 falls below the eta floor
    (0.7, 0.68875),    # 0.7 - 9 * 0.4 * 0.1 / 32
    (1.3, 1.0)])       # capped at 1
def test_weighted_stage_is_sized_by_the_overlap_floor(variant2q, rng, monkeypatch,
                                                      p0_bar, p_lo):
    """The weighted stage targets p_lo * epsilon/4 with p_lo = min(1, max(eta,
    p0_bar - 9 eta epsilon/32)) of the overlap estimate p0_bar; Certify and
    the overlap stage keep the promised eta.  The overlap and the Hermitian
    Pauli target read only their real parts, at 3/2 W^2 and 3/2 W^4."""
    _, s = variant2q
    o_mat = build_operator([(1.0, "XI")]).matrix()
    phi0 = mixed_with_noise(s.ground_state(),
                            rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=37)
    _overlap_reading(monkeypatch, p0_bar)
    report = estimate_gsprop_general(s, phi0, o_mat, cfg)
    inter = report.intermediate
    assert inter["p0_bar"] == p0_bar
    assert inter["p_lo"] == pytest.approx(p_lo, abs=1e-15)
    assert inter["delta_prop"] == property_delta(s.tau, s.gap)
    assert inter["delta_gse"] == gse_delta(s.tau, s.gap)
    w = build_fourier_approx(property_delta(s.tau, s.gap),
                             0.4 * 0.1 / 32.0).total_weight
    n_gse = math.prod(certify_schedule(inter["total_weight_gse"], 0.4, 0.1 / 3.0,
                                       gse_delta(s.tau, s.gap)))
    n_o, k_o = mom_schedule(1.5 * w ** 2, 0.4, 0.1 / 4.0, 0.1 / 3.0)
    n_g, k = mom_schedule(1.5 * w ** 4, p_lo, 0.1 / 4.0, 0.1 / 3.0)
    assert (inter["n_g"], inter["k_overlap"], inter["k_weighted"]) == (n_o, k_o, k)
    assert report.shots_used == n_gse + n_o * k_o + n_g * k


def _reflection(rng):
    """I - 2 v v^H for a random complex unit v: dense, Hermitian, unitary."""
    v = random_state(rng, 4)
    return np.eye(4) - 2.0 * np.outer(v, v.conj())


# name -> (pipeline, observable or (p, q), whether sum u O is Hermitian)
REAL_TARGET_CASES = {
    "pauli-x": ("general", lambda rng: kron_word("XI"), True),
    "i-z": ("general", lambda rng: 1j * kron_word("ZI"), False),
    # the 4-cycle |r> -> |r + 1>: a real permutation that is not its inverse
    "four-cycle": ("general", lambda rng: np.roll(np.eye(4), 1, axis=0), False),
    "dense-hermitian": ("general", _reflection, True),
    "dense-unitary": ("general", lambda rng: random_unitary(rng, 4), False),
    "block": ("block", lambda rng: random_hermitian(rng, 4, norm=0.8), True),
    "rdm-0-0": ("rdm", lambda rng: (0, 0), True),
    "rdm-0-1": ("rdm", lambda rng: (0, 1), False),
}


@pytest.mark.parametrize("case", list(REAL_TARGET_CASES))
def test_real_target_is_read_off_the_observables(variant2q, rng, case):
    """estimate_ratio keeps only the real part, and reports real_target, when
    sum u O is Hermitian: a Hermitian Pauli string or dense matrix, a block
    encoding, a diagonal 1RDM entry's two products; iZ, a permutation that
    is not an involution, a dense non-Hermitian unitary and an off-diagonal
    1RDM entry keep both parts."""
    _, s = variant2q
    pipeline, build, real = REAL_TARGET_CASES[case]
    o = build(rng)
    phi0 = mixed_with_noise(s.ground_state(),
                            rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=5,
                           n_s=500, n_b=9, n_g=5, k=2000)
    if pipeline == "rdm":
        report = estimate_1rdm_entry(s, phi0, *o, cfg)
    elif pipeline == "block":
        report = estimate_gsprop_block(s, phi0, embed_block(o), cfg)
    else:
        report = estimate_gsprop_general(s, phi0, o, cfg)
    assert report.intermediate["real_target"] is real
    assert (report.value.imag == 0.0) is real
    assert (report.intermediate["p0o0_bar"].imag == 0.0) is real


def test_complex_target_keeps_its_imaginary_part_and_the_complex_bound(variant2q,
                                                                        rng):
    """O = e^{i pi/4} X is unitary, not Hermitian: its weighted stage is sized
    at the complex bound 2 W^4, and the estimate, the median's both parts over
    p0_bar, lands within epsilon of the complex <psi0|O|psi0>."""
    _, s = variant2q
    o_mat = np.exp(1j * math.pi / 4) * kron_word("XI")
    psi0 = s.ground_state()
    exact = complex(psi0.conj() @ o_mat @ psi0)
    assert abs(exact.imag) > 0.2
    phi0 = mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=37)
    report = estimate_gsprop_general(s, phi0, o_mat, cfg)
    inter = report.intermediate
    assert inter["real_target"] is False
    w = inter["total_weight_prop"]
    n_g, k = mom_schedule(2.0 * w ** 4, inter["p_lo"], cfg.epsilon / 4.0,
                          cfg.nu / 3.0)
    assert inter["k_weighted"] == k
    assert report.shots_used == (inter["n_s"] * inter["n_b"]
                                 + inter["n_g"] * inter["k_overlap"] + n_g * k)
    assert report.value == inter["p0o0_bar"] / inter["p0_bar"]
    assert abs(report.value - exact) <= cfg.epsilon


def test_pinned_k_pins_the_weighted_stage(variant2q, rng, monkeypatch):
    """A pinned group size k holds for the weighted stage whatever p_lo is."""
    _, s = variant2q
    phi0 = mixed_with_noise(s.ground_state(),
                            rng.normal(size=4) + 1j * rng.normal(size=4), 0.5)
    cfg = EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=37, n_g=5, k=1000)
    _overlap_reading(monkeypatch, 0.9)
    report = estimate_gsprop_general(s, phi0, np.eye(4), cfg)
    inter = report.intermediate
    assert inter["p_lo"] > cfg.eta
    assert inter["k_weighted"] == inter["k_overlap"] == 1000
    assert report.shots_used == inter["n_s"] * inter["n_b"] + 2 * 5 * 1000


def test_shot_overrides_respected(variant2q):
    _, s = variant2q
    cfg = EstimationConfig(epsilon=0.2, eta=0.5, nu=0.2, seed=0,
                           n_s=500, n_b=9, n_g=5, k=1000)
    report = estimate_gsprop_general(s, s.ground_state(), np.eye(4), cfg)
    assert report.intermediate["n_s"] == 500
    assert report.intermediate["n_b"] == 9
    assert report.shots_used == 500 * 9 + 2 * 5 * 1000


def test_config_validation():
    with pytest.raises(PreconditionError):
        EstimationConfig(epsilon=0.0, eta=0.5, nu=0.1)
    with pytest.raises(PreconditionError):
        EstimationConfig(epsilon=0.1, eta=1.5, nu=0.1)
    with pytest.raises(PreconditionError):
        EstimationConfig(epsilon=0.1, eta=0.5, nu=0.1, gamma=-1.0)


@pytest.mark.parametrize("gamma", [math.inf, math.nan])
def test_config_rejects_non_finite_gamma(gamma):
    with pytest.raises(PreconditionError, match="gamma must be positive and finite"):
        EstimationConfig(epsilon=0.1, eta=0.5, nu=0.1, gamma=gamma)


def test_epsilon_range_is_checked_by_each_stage(variant2q, monkeypatch):
    """The config takes any positive finite epsilon; a property estimate
    needs it in (0, 1), a GSE stage needs tau * epsilon below pi/6, and
    both are refused before a table is built."""
    _, s = variant2q
    with pytest.raises(PreconditionError, match="epsilon must be positive and finite"):
        EstimationConfig(epsilon=math.inf, eta=0.5, nu=0.1)
    monkeypatch.setattr(hadamard, "oracle_tables", None)
    cfg = EstimationConfig(epsilon=1.5, eta=0.5, nu=0.1)
    with pytest.raises(PreconditionError, match=re.escape("epsilon must lie in (0, 1)")):
        estimate_gsprop_general(s, s.ground_state(), np.eye(4), cfg)
    with pytest.raises(PreconditionError, match="outside the Fourier construction"):
        estimate_gse(s, s.ground_state(),
                     EstimationConfig(epsilon=math.pi / 3 / s.tau, eta=0.5, nu=0.1),
                     law=np.zeros((1, 2)))


def test_property_pipeline_is_invariant_to_scaling_h(rng):
    """GSE runs at accuracy gamma/8 in the units of H, so a gap of 8 or more
    is no error and scaling H leaves the estimate, its shots and its schedule
    unchanged, bit for bit: every Fourier parameter is a product with tau,
    which scales inversely.  This holds for the general pipeline, the block
    circuit at alpha = 1.5 (its four-column outcome law) and a 1RDM entry
    (a weighted stage of several terms)."""
    instances = [diagonalize(build_operator([(scale * c, w) for c, w in TFIM3_TERMS]))
                 for scale in (1.0, 50.0, 1000.0)]
    assert instances[1].gap > 8.0
    phi0 = mixed_with_noise(instances[0].ground_state(), random_state(rng, 8), 0.5)
    cfg = EstimationConfig(epsilon=0.05, eta=0.4, nu=0.1, seed=3)
    block = embed_block(0.6 * kron_word("ZII") + 0.3 * kron_word("XXI"), 1.5)
    pipelines = [lambda s: estimate_gsprop_general(s, phi0, kron_word("XXX"), cfg),
                 lambda s: estimate_gsprop_block(s, phi0, block, cfg),
                 lambda s: estimate_1rdm_entry(s, phi0, 0, 1, cfg)]
    schedule = ("d_gse", "d_prop", "n_s", "n_b", "n_g", "k_overlap", "k_weighted")
    for pipeline in pipelines:
        runs = []
        for s in instances:
            report = pipeline(s)
            runs.append((report.value, report.shots_used,
                         *(report.intermediate[key] for key in schedule)))
        assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize("field,value", [
    ("n_s", 0), ("n_b", 0), ("n_g", -3), ("k", 0),
    ("n_b", 2.0), ("k", True), ("n_g", "9")])
def test_shot_overrides_must_be_positive_integers(field, value):
    with pytest.raises(PreconditionError,
                       match=re.escape(f"{field} must be None or an integer >= 1")):
        EstimationConfig(epsilon=0.1, eta=0.5, nu=0.1, **{field: value})
    assert getattr(EstimationConfig(epsilon=0.1, eta=0.5, nu=0.1,
                                    **{field: np.int64(1)}), field) == 1
