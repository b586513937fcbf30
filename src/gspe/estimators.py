"""Classical estimation stack on top of the Hadamard-test samplers.

The pieces, bottom up: importance sampling of the Fourier index J, the
single-shot estimators G and G2 for the approximate CDFs, mean and
median-of-means aggregation, the Certify / InvertCDF binary search, and the
staged pipeline GSE -> good point -> overlap -> weighted stage.  Each stage is
a public function; the three property pipelines (commuting unitary, general
unitary via the two-time circuit, block-encoded observable) and the
applications are short compositions of them.

Shot counting: one "shot" is one bundled sampler invocation (an X run plus a
Y run at the same time parameters).  Evolution time is accounted per shot as
|j| tau for the one-time circuits and (|j| + |j'|) tau for two-time circuits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import hadamard
from .fourier import FourierApprox, build_fourier_approx
from .hadamard import (block_norm_table, expectation_table_1d,
                       expectation_table_2d, expectation_table_O)
from .seeding import stage_rng
from .spectral import SpectralData, as_state

COMMUTATION_TOL = 1e-9


class EstimationError(RuntimeError):
    pass


class PreconditionError(ValueError):
    pass


@dataclass(frozen=True)
class EstimationConfig:
    """Statistical targets plus optional shot-schedule overrides.

    ``gamma`` defaults to the oracle gap of the instance.  Derived schedules
    may be pinned via ``n_s``/``n_b`` (Certify batches) and ``n_g``/``k``
    (median-of-means groups and group size).
    """

    epsilon: float
    eta: float
    nu: float
    seed: int = 0
    gamma: float | None = None
    n_s: int | None = None
    n_b: int | None = None
    n_g: int | None = None
    k: int | None = None

    def __post_init__(self):
        for name in ("epsilon", "eta", "nu"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise PreconditionError(f"{name} must lie in (0, 1), got {v}")
        if self.gamma is not None and self.gamma <= 0.0:
            raise PreconditionError(f"gamma must be positive, got {self.gamma}")


@dataclass
class EvolutionBudget:
    """Largest single evolution time and accumulated total, both in the
    unnormalized time unit of the Hamiltonian."""

    max_time: float = 0.0
    total_time: float = 0.0

    def add_times(self, times: np.ndarray) -> None:
        if times.size:
            self.max_time = max(self.max_time, float(times.max()))
            self.total_time += float(times.sum())

    def merge(self, other: "EvolutionBudget") -> None:
        self.max_time = max(self.max_time, other.max_time)
        self.total_time += other.total_time


@dataclass
class EstimateReport:
    value: complex
    shots_used: int
    budget: EvolutionBudget
    config: EstimationConfig
    intermediate: dict = field(default_factory=dict)


# --- shot schedules ----------------------------------------------------------

def certify_schedule(total_weight: float, eta: float, nu: float, delta: float,
                     n_s: int | None = None, n_b: int | None = None):
    """Per-batch sample count and batch count for Certify.

    The batch mean must resolve the eta/8 threshold margin, so the per-batch
    standard deviation is pushed to eta/16 (two sigmas of margin); batches are
    majority-voted, Chernoff-style.
    """
    var = 2.0 * total_weight ** 2
    target = eta / 16.0
    if n_s is None:
        n_s = int(math.ceil(var / target ** 2))
    if n_b is None:
        n_b = max(9, int(math.ceil(10.0 * (math.log(1.0 / nu)
                                           + math.log1p(math.log(1.0 / delta))))))
    return n_s, n_b


def mom_schedule(var_bound: float, eta: float, eps_local: float, nu: float,
                 n_g: int | None = None, k: int | None = None):
    """Median-of-means schedule for an additive target of eta*eps_local.

    Group count grows like log(1/nu).  The group size puts the median of the
    (CLT-Gaussian) group means at standard deviation ~0.7 * eta * eps_local:
    since the pipelines budget eps_local = epsilon/4 per component and divide
    by an overlap >= eta, the ratio-level error then sits several standard
    deviations inside epsilon, which is the contract that matters.
    """
    if n_g is None:
        n_g = max(9, int(math.ceil(5.0 * math.log(1.0 / nu))))
    if n_g % 2 == 0:
        n_g += 1
    if k is None:
        t = eta * eps_local
        k = max(2, int(math.ceil(math.pi * var_bound / (n_g * t * t))))
    return n_g, k


# --- J sampling and the single-shot estimators --------------------------------

def _alias_tables(probs: np.ndarray):
    """Vose alias tables for O(1) categorical sampling."""
    n = probs.size
    scaled = probs * n
    accept = np.ones(n)
    alias = np.arange(n)
    small = [i for i in range(n) if scaled[i] < 1.0]
    large = [i for i in range(n) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        g = large.pop()
        accept[s] = scaled[s]
        alias[s] = g
        scaled[g] = scaled[g] + scaled[s] - 1.0
        (small if scaled[g] < 1.0 else large).append(g)
    return accept, alias


def sample_j_batch(approx: FourierApprox, size: int, rng) -> np.ndarray:
    """Draw j with Pr[J = j] = |c_j| / total_weight (alias method)."""
    if approx.total_weight <= 0.0:
        raise EstimationError("total Fourier weight must be positive")
    accept, alias = _cached_alias(approx)
    n = accept.size
    cell = rng.integers(0, n, size=size)
    keep = rng.random(size) < accept[cell]
    return np.where(keep, cell, alias[cell]) - approx.d


_ALIAS_CACHE: dict[int, tuple] = {}


def _cached_alias(approx: FourierApprox):
    # keyed by object identity; the entry pins the approx so a freed id
    # cannot be reused by a different instance while cached
    key = id(approx)
    hit = _ALIAS_CACHE.get(key)
    if hit is None or hit[0] is not approx:
        tables = _alias_tables(approx.abs_coefficients / approx.total_weight)
        if len(_ALIAS_CACHE) > 32:
            _ALIAS_CACHE.clear()
        hit = (approx, tables)
        _ALIAS_CACHE[key] = hit
    return hit[1]


def sample_J(approx: FourierApprox, rng) -> int:
    return int(sample_j_batch(approx, 1, rng)[0])


def g_estimator(approx: FourierApprox, x: float, j, z) -> complex | np.ndarray:
    """G(x; J, Z) = total_weight * Z * exp(i(theta_J + J x))."""
    j = np.asarray(j)
    theta = approx.phases[j + approx.d]
    out = approx.total_weight * np.asarray(z) * np.exp(1j * (theta + j * x))
    return complex(out) if out.ndim == 0 else out


def g2_estimator(approx: FourierApprox, x: float, y: float, j, j2, z):
    """G2(x, y; J, J', Z) = total_weight^2 * Z * e^{i(theta_J + Jx)} e^{i(theta_J' + J'y)}."""
    j = np.asarray(j)
    j2 = np.asarray(j2)
    theta = approx.phases[j + approx.d]
    theta2 = approx.phases[j2 + approx.d]
    out = (approx.total_weight ** 2 * np.asarray(z)
           * np.exp(1j * (theta + j * x + theta2 + j2 * y)))
    return complex(out) if out.ndim == 0 else out


def median_of_means(values, n_g: int, k: int) -> complex:
    """Group the values into n_g groups of k, average within groups, then take
    the component-wise lower median across groups."""
    v = np.asarray(values, dtype=complex).reshape(-1)
    if v.size != n_g * k:
        raise ValueError(f"expected {n_g * k} values, got {v.size}")
    groups = v.reshape(n_g, k).mean(axis=1)
    mid = (n_g - 1) // 2
    re = float(np.sort(groups.real)[mid])
    im = float(np.sort(groups.imag)[mid])
    return complex(re, im)


# --- exact ACDF evaluators (ground truth without sampling) --------------------

def _acdf(approx: FourierApprox, moments: np.ndarray, x):
    x = np.atleast_1d(np.asarray(x, dtype=float))
    phases = np.exp(1j * np.outer(x, approx.js))
    out = phases @ (approx.coefficients * moments)
    return out if out.size > 1 else complex(out[0])


def acdf_exact(approx: FourierApprox, spectral: SpectralData, phi0, x):
    """ACDF (F * p)(x) = sum_j c_j e^{ijx} <phi0|e^{-ij tau H}|phi0>."""
    return _acdf(approx, expectation_table_1d(spectral, phi0, approx.d), x)


def acdf_weighted_exact(approx: FourierApprox, spectral: SpectralData, phi0,
                        o_matrix, x):
    return _acdf(approx, expectation_table_O(spectral, phi0, o_matrix, approx.d), x)


def acdf_2d_exact(approx: FourierApprox, spectral: SpectralData, phi0,
                  o_matrix, x: float, y: float) -> complex:
    table = expectation_table_2d(spectral, phi0, o_matrix, approx.d)
    px = approx.coefficients * np.exp(1j * approx.js * x)
    py = approx.coefficients * np.exp(1j * approx.js * y)
    return complex(px @ table @ py)


# --- pooled sampling ----------------------------------------------------------

_DRAW_CHUNK = 1 << 21


def _draw_pool_1d(approx, e_table, size, rng, budget, tau):
    js = sample_j_batch(approx, size, rng)
    zs = np.empty(size, dtype=complex)
    for lo in range(0, size, _DRAW_CHUNK):
        hi = min(size, lo + _DRAW_CHUNK)
        zs[lo:hi] = hadamard.draw_xy_pm1(e_table[js[lo:hi] + approx.d], rng)
    budget.add_times(np.abs(js) * tau)
    return js, zs


def _draw_pool_2d(approx, e_table, size, rng, budget, tau, *,
                  nsq_table=None, alpha=None):
    j1 = sample_j_batch(approx, size, rng)
    j2 = sample_j_batch(approx, size, rng)
    d = approx.d
    zs = np.empty(size, dtype=complex)
    for lo in range(0, size, _DRAW_CHUNK):
        hi = min(size, lo + _DRAW_CHUNK)
        e = e_table[j1[lo:hi] + d, j2[lo:hi] + d]
        if nsq_table is None:
            zs[lo:hi] = hadamard.draw_xy_pm1(e, rng)
        else:
            zs[lo:hi] = hadamard.draw_block_xy(
                e, nsq_table[j2[lo:hi] + d], alpha, rng)
    budget.add_times((np.abs(j1) + np.abs(j2)) * tau)
    return j1, j2, zs


# --- Certify and InvertCDF ----------------------------------------------------

def certify(approx: FourierApprox, js, zs, x: float, eta: float,
            n_s: int, n_b: int) -> int:
    """1 is evidence that C(x - delta) < eta; 0 that C(x + delta) > eta/2.

    Counts batches whose mean estimator (real part) clears (3/4) eta and
    majority-votes.
    """
    if js.size < n_s * n_b:
        raise EstimationError(
            f"certify needs {n_s * n_b} pooled samples, got {js.size}")
    sums = _grouped_sums(approx, js[:n_s * n_b], zs[:n_s * n_b], n_s, n_b)
    means = batch_means(approx, sums, x, n_s)
    c = int(np.sum(means.real >= 0.75 * eta))
    return 1 if c <= n_b / 2 else 0


def _grouped_sums(approx: FourierApprox, js, zs, n_s: int, n_b: int) -> np.ndarray:
    """S[r, j + d] = sum of z over batch r where J = j (one pass, reused by
    every Certify evaluation on the shared pool)."""
    width = 2 * approx.d + 1
    flat = np.arange(n_b).repeat(n_s) * width + (js + approx.d)
    re = np.bincount(flat, weights=zs.real, minlength=n_b * width)
    im = np.bincount(flat, weights=zs.imag, minlength=n_b * width)
    return (re + 1j * im).reshape(n_b, width)


def batch_means(approx: FourierApprox, sums: np.ndarray, x: float,
                n_s: int) -> np.ndarray:
    """Mean of G(x) over each batch of n_s shots, from the sums S[r, j + d]."""
    phases = np.exp(1j * (approx.phases + approx.js * x))
    return approx.total_weight / n_s * (sums @ phases)


SEARCH_PAD = 3.0  # bracket extension beyond +-pi/3, in units of delta


def bracket_iterations(delta: float, width: float | None = None) -> int:
    """Iteration count of the shifted-midpoint bisection: each step maps the
    bracket width w to w/2 + (2/3) delta until it reaches 2 delta."""
    w = width if width is not None else 2.0 * math.pi / 3.0 + 2 * SEARCH_PAD * delta
    count = 0
    while w > 2.0 * delta:
        w = 0.5 * w + (2.0 / 3.0) * delta
        count += 1
    return count


def invert_cdf(approx: FourierApprox, js, zs, eta: float, delta: float,
               n_s: int, n_b: int) -> float:
    """Robust binary search for the first eta-crossing of the CDF.

    The bracket starts slightly beyond [-pi/3, pi/3] so spectra whose extreme
    eigenvalue sits exactly at +-pi/3 (the generic case under exact spectral
    normalization) keep the bracket invariant C(x_L) < eta <= ... < C(x_R).
    Midpoint shifts are +-(2/3) delta and the loop ends at width 2 delta.
    """
    sums = _grouped_sums(approx, js[:n_s * n_b], zs[:n_s * n_b], n_s, n_b)
    return _invert_sums(approx, sums, eta, delta, n_s)


def _invert_sums(approx: FourierApprox, sums: np.ndarray, eta: float,
                 delta: float, n_s: int) -> float:
    """InvertCDF on the per-batch sums S[r, j + d] of the pool."""
    n_b = sums.shape[0]
    x_left = -math.pi / 3.0 - SEARCH_PAD * delta
    x_right = math.pi / 3.0 + SEARCH_PAD * delta
    max_iter = bracket_iterations(delta, x_right - x_left) + 2
    iterations = 0
    while x_right - x_left > 2.0 * delta:
        if iterations > max_iter:
            raise EstimationError("binary search failed to contract")
        x_mid = 0.5 * (x_left + x_right)
        means = batch_means(approx, sums, x_mid, n_s)
        c = int(np.sum(means.real >= 0.75 * eta))
        if c > n_b / 2:
            # evidence C(x_mid + (2/3) delta) > eta/2: crossing is left of here
            x_right = x_mid + (2.0 / 3.0) * delta
        else:
            x_left = x_mid - (2.0 / 3.0) * delta
        iterations += 1
    return 0.5 * (x_left + x_right)


# --- the pipeline stages: GSE -> good point -> overlap -> weighted -----------

@dataclass(kw_only=True)
class GSEReport(EstimateReport):
    """EstimateGSE's report plus the approximant it used and its pool's
    per-batch, per-j sums S[r, j + d], all that Certify reads of the pool."""

    approx: FourierApprox
    sums: np.ndarray


def estimate_gse(spectral: SpectralData, phi0, cfg: EstimationConfig, *,
                 nu: float | None = None, rng=None) -> GSEReport:
    """EstimateGSE, the GSE stage: value = x*/tau.

    The Heaviside approximant is built at delta = tau * epsilon with
    approximation budget eta/8, the shared (J, Z) pool is drawn once and
    reduced to its per-batch sums, and the CDF is inverted by the Certify
    binary search on them.
    """
    phi0 = as_state(phi0, dim=spectral.dim)
    nu = cfg.nu if nu is None else nu
    delta = spectral.tau * cfg.epsilon
    approx = build_fourier_approx(delta, cfg.eta / 8.0)
    n_s, n_b = certify_schedule(approx.total_weight, cfg.eta, nu, delta,
                                cfg.n_s, cfg.n_b)
    rng = rng if rng is not None else stage_rng(cfg.seed, "gse")
    budget = EvolutionBudget()
    e_table = expectation_table_1d(spectral, phi0, approx.d)
    js, zs = _draw_pool_1d(approx, e_table, n_s * n_b, rng, budget, spectral.tau)
    sums = _grouped_sums(approx, js, zs, n_s, n_b)
    x_star = _invert_sums(approx, sums, cfg.eta, delta, n_s)
    return GSEReport(
        value=x_star / spectral.tau, shots_used=n_s * n_b, budget=budget,
        config=cfg, approx=approx, sums=sums,
        intermediate={"x_star": x_star, "d_gse": approx.d,
                      "n_s": n_s, "n_b": n_b, "tau": spectral.tau,
                      "total_weight_gse": approx.total_weight})


def good_point(x_star: float, tau: float, gamma: float, *,
               epsilon: float | None = None) -> float:
    """x* + tau*gamma/2, the evaluation point clear of both the ground jump
    and the first excited jump.  Requires the GSE accuracy epsilon < gamma/4."""
    if epsilon is not None and not 0.0 < epsilon < gamma / 4.0:
        raise PreconditionError(
            f"good point needs epsilon in (0, gamma/4); got epsilon={epsilon}, "
            f"gamma={gamma}")
    return x_star + tau * gamma / 2.0


def weighted_stage(approx: FourierApprox, table: np.ndarray, x_good: float,
                   n_g: int, k: int, rng, budget: EvolutionBudget, tau: float,
                   *, nsq_table=None, alpha=None) -> complex:
    """Median-of-means estimate at x_good, from n_g * k fresh shots, of
    sum_j c_j e^{ijx} E_j for a one-time table E or of the two-time sum
    sum_{j,j'} c_j c_j' e^{i(j+j')x} E_{j,j'} (block-circuit shots when
    ``nsq_table`` and ``alpha`` are given)."""
    # same values as g_estimator / g2_estimator, per-j phases from a table
    phase = approx.total_weight * np.exp(1j * (approx.phases + approx.js * x_good))
    if table.ndim == 1:
        js, zs = _draw_pool_1d(approx, table, n_g * k, rng, budget, tau)
        values = zs * phase[js + approx.d]
    else:
        j1, j2, zs = _draw_pool_2d(approx, table, n_g * k, rng, budget, tau,
                                   nsq_table=nsq_table, alpha=alpha)
        values = zs * phase[j1 + approx.d] * phase[j2 + approx.d]
    return median_of_means(values, n_g, k)


def _property_approx(spectral: SpectralData, cfg: EstimationConfig) -> FourierApprox:
    """Approximant of the overlap and weighted stages: delta = tau*gamma/5
    keeps both jumps clear of the good point; budget eta*epsilon/32."""
    gamma = cfg.gamma if cfg.gamma is not None else spectral.gap
    return build_fourier_approx(spectral.tau * gamma / 5.0,
                                cfg.eta * (cfg.epsilon / 4.0) / 8.0)


def _overlap_schedule(approx: FourierApprox, cfg: EstimationConfig, nu: float):
    return mom_schedule(2.0 * approx.total_weight ** 2, cfg.eta,
                        cfg.epsilon / 4.0, nu, cfg.n_g, cfg.k)


def estimate_overlap(spectral: SpectralData, phi0, x_good: float,
                     cfg: EstimationConfig, *, approx: FourierApprox | None = None,
                     nu: float | None = None, rng=None,
                     budget: EvolutionBudget | None = None) -> float:
    """The overlap stage: median-of-means estimate of p0 = C(x_good)."""
    phi0 = as_state(phi0, dim=spectral.dim)
    nu = cfg.nu if nu is None else nu
    approx = approx if approx is not None else _property_approx(spectral, cfg)
    n_g, k = _overlap_schedule(approx, cfg, nu)
    rng = rng if rng is not None else stage_rng(cfg.seed, "overlap")
    budget = budget if budget is not None else EvolutionBudget()
    e_table = expectation_table_1d(spectral, phi0, approx.d)
    return weighted_stage(approx, e_table, x_good, n_g, k, rng, budget,
                          spectral.tau).real


@dataclass
class Denominator:
    """What the stages before the weighted one hand it, and what they spent."""

    x_good: float
    approx: FourierApprox
    p0_bar: float
    nu: float
    budget: EvolutionBudget
    shots: int
    intermediate: dict

    def ratio(self, cfg: EstimationConfig, table: np.ndarray, var_bound: float,
              tau: float, *, nsq_table=None, alpha=None) -> EstimateReport:
        """Weighted stage on ``table`` at failure probability nu, divided by
        p0_bar; ``var_bound`` bounds the second moment of one shot."""
        n_g, k = mom_schedule(var_bound, cfg.eta, cfg.epsilon / 4.0, self.nu,
                              cfg.n_g, cfg.k)
        num = weighted_stage(self.approx, table, self.x_good, n_g, k,
                             stage_rng(cfg.seed, "weighted"), self.budget, tau,
                             nsq_table=nsq_table, alpha=alpha)
        return EstimateReport(value=num / self.p0_bar,
                              shots_used=self.shots + n_g * k,
                              budget=self.budget, config=cfg,
                              intermediate=dict(self.intermediate, p0o0_bar=num))


def estimate_denominator(spectral: SpectralData, phi0, cfg: EstimationConfig, *,
                         nu: float, x_good: float | None = None) -> Denominator:
    """EstimateGSE at accuracy gamma/8 and the good point (both skipped when
    ``x_good`` is given), then the overlap p0_bar = C(x_good), which must come
    out positive; each stage at failure probability nu."""
    gamma = cfg.gamma if cfg.gamma is not None else spectral.gap
    if gamma <= 0.0:
        raise PreconditionError("pipelines need a positive spectral gap")
    budget, shots, inter = EvolutionBudget(), 0, {"gamma": gamma}
    if x_good is None:
        eps_gse = gamma / 8.0
        gse = estimate_gse(spectral, phi0, replace(cfg, epsilon=eps_gse, gamma=gamma),
                           nu=nu, rng=stage_rng(cfg.seed, "gse"))
        x_good = good_point(gse.intermediate["x_star"], spectral.tau, gamma,
                            epsilon=eps_gse)
        budget, shots = gse.budget, gse.shots_used
        inter.update(gse.intermediate)
    approx = _property_approx(spectral, cfg)
    p0_bar = estimate_overlap(spectral, phi0, x_good, cfg, approx=approx, nu=nu,
                              budget=budget)
    if p0_bar <= 0.0:
        raise EstimationError(f"overlap estimate {p0_bar} is not positive")
    n_g, k = _overlap_schedule(approx, cfg, nu)
    inter.update({"x_good": x_good, "p0_bar": p0_bar, "d_prop": approx.d,
                  "n_g": n_g, "k_overlap": k,
                  "total_weight_prop": approx.total_weight})
    return Denominator(x_good=x_good, approx=approx, p0_bar=p0_bar, nu=nu,
                       budget=budget, shots=shots + n_g * k, intermediate=inter)


# --- end-to-end pipelines -----------------------------------------------------

def _dense_hamiltonian(spectral: SpectralData) -> np.ndarray:
    v = spectral.eigenvectors
    return (v * spectral.eigenvalues) @ v.conj().T


def estimate_gsprop_commutative(spectral: SpectralData, phi0, o_operator,
                                cfg: EstimationConfig) -> EstimateReport:
    """Property pipeline for a unitary observable commuting with H."""
    o_mat = hadamard.require_unitary(hadamard.as_matrix(o_operator))
    h_mat = _dense_hamiltonian(spectral)
    comm = np.linalg.norm(h_mat @ o_mat - o_mat @ h_mat)
    if comm > COMMUTATION_TOL * max(1.0, np.linalg.norm(h_mat)):
        raise PreconditionError(f"observable does not commute with H ({comm:.3e})")
    front = estimate_denominator(spectral, phi0, cfg, nu=cfg.nu / 3.0)
    table = expectation_table_O(spectral, phi0, o_mat, front.approx.d)
    return front.ratio(cfg, table, 2.0 * front.approx.total_weight ** 2,
                       spectral.tau)


def estimate_gsprop_general(spectral: SpectralData, phi0, o_operator,
                            cfg: EstimationConfig) -> EstimateReport:
    """Property pipeline for a general unitary observable (two-time circuit)."""
    o_mat = hadamard.require_unitary(hadamard.as_matrix(o_operator))
    front = estimate_denominator(spectral, phi0, cfg, nu=cfg.nu / 3.0)
    table = expectation_table_2d(spectral, phi0, o_mat, front.approx.d)
    return front.ratio(cfg, table, 2.0 * front.approx.total_weight ** 4,
                       spectral.tau)


def estimate_gsprop_block(spectral: SpectralData, phi0,
                          block: hadamard.BlockEncoding,
                          cfg: EstimationConfig) -> EstimateReport:
    """Property pipeline for a block-encoded (possibly non-unitary) observable.

    Identical to the general pipeline except the two-time shots come from the
    post-selected circuit, whose per-shot variance carries an alpha^2 factor
    that the schedule absorbs.
    """
    front = estimate_denominator(spectral, phi0, cfg, nu=cfg.nu / 3.0)
    d = front.approx.d
    report = front.ratio(
        cfg, expectation_table_2d(spectral, phi0, block.operator, d),
        2.0 * block.alpha ** 2 * front.approx.total_weight ** 4, spectral.tau,
        nsq_table=block_norm_table(spectral, phi0, block.operator, d),
        alpha=block.alpha)
    report.intermediate["alpha"] = block.alpha
    return report
