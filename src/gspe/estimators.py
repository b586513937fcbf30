"""Classical estimation stack on top of the Hadamard-test circuit laws.

The pieces, bottom up: importance sampling of the Fourier index J, the
single-shot estimators G and G2 for the approximate CDFs, mean and
median-of-means aggregation, the Certify / InvertCDF binary search, and the
staged pipeline GSE -> good point -> overlap -> weighted stage.  Each stage is
a public function; the three property pipelines (commuting unitary, general
unitary via the two-time circuit, block-encoded observable) and the
applications are short compositions of them.

Shot counting: one "shot" is an X run plus a Y run at the same time
parameters.  Evolution time is accounted per shot as
|j| tau for the one-time circuits and (|j| + |j'|) tau for two-time circuits.

Schedules: a median-of-means stage is sized by a bound on one shot's second
moment, 2 per unit weight for the complex value and 3/2 for its real part
alone.  The overlap stage and the weighted stage of a Hermitian target read
only the real part and take the 3/2 bound; a complex target keeps the 2.
Certify reads only the real part too but is still sized at 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from . import hadamard
from .fourier import MAX_DELTA, FourierApprox, build_fourier_approx
# block_norm_table too: perfbench/layers.py wraps the table builders by
# their names in this module
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

    ``epsilon`` is the accuracy: a dimensionless fraction in (0, 1) for a
    property estimate (checked by :func:`estimate_ratio` and
    :func:`estimate_overlap`), an energy in the units of H for
    :func:`estimate_gse` run on its own (checked there as delta = tau *
    epsilon within the Fourier construction's range).  ``gamma`` defaults
    to the oracle gap of the instance.  Derived schedules may be pinned via
    ``n_s``/``n_b`` (Certify batches) and ``n_g``/``k`` (median-of-means
    groups and group size), each None or an int >= 1.
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
        if not 0.0 < self.epsilon < math.inf:
            raise PreconditionError(
                f"epsilon must be positive and finite, got {self.epsilon}")
        for name in ("eta", "nu"):
            v = getattr(self, name)
            if not 0.0 < v < 1.0:
                raise PreconditionError(f"{name} must lie in (0, 1), got {v}")
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise PreconditionError(
                f"gamma must be positive and finite, got {self.gamma}")
        for name in ("n_s", "n_b", "n_g", "k"):
            v = getattr(self, name)
            if v is not None and (isinstance(v, bool) or not isinstance(v, Integral)
                                  or v < 1):
                raise PreconditionError(
                    f"{name} must be None or an integer >= 1, got {v!r}")


@dataclass
class EvolutionBudget:
    """Largest single evolution time and accumulated total, both in the
    unnormalized time unit of the Hamiltonian, and the shots they came from."""

    max_time: float = field(default=0.0, init=False)
    total_time: float = field(default=0.0, init=False)
    shots: int = field(default=0, init=False)

    def add_times(self, times: np.ndarray, counts: np.ndarray | None = None) -> None:
        """Spend the shots whose evolution times are ``times``, one each, or
        counts[i] shots of time times[i] when ``counts`` is given."""
        if counts is not None:
            self.shots += int(counts.sum())
            self.total_time += float(times @ counts)
            times = times[counts > 0]
        else:
            self.shots += times.size
            self.total_time += float(times.sum())
        if times.size:
            self.max_time = max(self.max_time, float(times.max()))


@dataclass
class EstimateReport:
    value: complex
    budget: EvolutionBudget
    intermediate: dict = field(default_factory=dict)

    @property
    def shots_used(self) -> int:
        """Every shot the estimate drew, as counted by its budget."""
        return self.budget.shots


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

def sample_j_batch(approx: FourierApprox, size: int, rng) -> np.ndarray:
    """Draw j with Pr[J = j] = |c_j| / total_weight (alias method)."""
    if approx.total_weight <= 0.0:
        raise EstimationError("total Fourier weight must be positive")
    accept, _ = approx.alias_tables
    cell = rng.integers(0, accept.size, size=size)
    keep = rng.random(size) < accept.take(cell)
    cell <<= 1
    cell += keep  # 2c + 1 for a kept draw: the cell itself
    return approx.alias_picks.take(cell)


def sample_j_counts(approx: FourierApprox, size: int, rng) -> np.ndarray:
    """How many of ``size`` draws of J land on each cell j + d:
    n ~ Multinomial(size, |c_j| / total_weight)."""
    if approx.total_weight <= 0.0:
        raise EstimationError("total Fourier weight must be positive")
    return rng.multinomial(size, approx.abs_coefficients / approx.total_weight)


def sample_J(approx: FourierApprox, rng) -> int:
    return int(sample_j_batch(approx, 1, rng)[0])


def g_estimator(approx: FourierApprox, x: float, j, z) -> complex | np.ndarray:
    """G(x; J, Z) = total_weight * Z * exp(i(theta_J + J x))."""
    out = (approx.total_weight * np.asarray(z)
           * approx.kernel(x)[np.asarray(j) + approx.d])
    return complex(out) if out.ndim == 0 else out


def g2_estimator(approx: FourierApprox, x: float, y: float, j, j2, z):
    """G2(x, y; J, J', Z) = total_weight^2 * Z * e^{i(theta_J + Jx)} e^{i(theta_J' + J'y)}."""
    out = (approx.total_weight ** 2 * np.asarray(z)
           * approx.kernel(x)[np.asarray(j) + approx.d]
           * approx.kernel(y)[np.asarray(j2) + approx.d])
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

def _pool_sums(approx: FourierApprox, law: np.ndarray, n_groups: int,
               group_size: int, rng, budget: EvolutionBudget, tau: float, *,
               lead=None, alpha=1.0) -> np.ndarray:
    """Draw n_groups * group_size shots from ``law``, a cell law of
    :func:`hadamard.outcome_law` at ``alpha`` (1 for a unitary observable),
    and return their sums S[g, j + d] over group g and last index j.

    The last index is J of a one-time law (one cell axis) and J' of a
    two-time one (two), whose shots also draw J and are multiplied by
    lead[J + d].  Shots in a group are exchangeable and S reads them only
    by last index, so each group first draws its last-index counts
    (:func:`sample_j_counts`) and lays its shots out in cell order.  Then,
    chunk by chunk (:func:`hadamard.sample_blocks` of the group), it draws J
    per shot (two-time only), then X, then Y per shot from the law at the
    shot's flat cell, j + d or (j' + d)(2d + 1) + (j + d), and adds each run
    of equal last index into S.  So nothing of a group's size is allocated.
    A two-time shot is charged (|j'| + |j|) tau, gathered at its flat cell
    from a table built once per pool.
    """
    d = approx.d
    width = 2 * d + 1
    two_time = law.ndim == 3
    law = law.reshape(-1, law.shape[-1])  # a row per flat cell; a view
    steps = np.abs(approx.js)
    if two_time:  # (|j'| + |j|) tau by flat cell
        pair_times = (steps[:, None] + steps).reshape(-1) * tau
    sums = np.zeros((n_groups, width), dtype=complex)
    for group in sums:
        counts = sample_j_counts(approx, group_size, rng)
        ends = np.cumsum(counts)
        if not two_time:
            budget.add_times(steps * tau, counts)
        for chunk in hadamard.sample_blocks(group_size):
            stops = np.clip(ends, chunk.start, chunk.stop)
            sizes = np.diff(stops, prepend=chunk.start)
            last = np.flatnonzero(sizes)
            runs = stops[last] - sizes[last] - chunk.start
            cells = np.repeat(last, sizes[last])
            if two_time:
                first = sample_j_batch(approx, chunk.stop - chunk.start, rng) + d
                cells *= width
                cells += first
                budget.add_times(pair_times.take(cells))
            zs = hadamard.draw_block_xy(law, cells, alpha, rng)
            if two_time:
                zs *= lead.take(first)
            group[last] += np.add.reduceat(zs, runs)
    return sums


# --- Certify and InvertCDF ----------------------------------------------------

def _shot_sums(approx: FourierApprox, js, zs, n_s: int, n_b: int) -> np.ndarray:
    """S[r, j + d] of the first n_b batches of n_s caller-supplied shots."""
    n = n_s * n_b
    if js.size < n:
        raise EstimationError(f"certify needs {n} pooled samples, got {js.size}")
    size = n_b * (2 * approx.d + 1)
    flat = np.arange(n) // n_s * (2 * approx.d + 1) + js[:n] + approx.d
    re = np.bincount(flat, weights=zs[:n].real, minlength=size)
    im = np.bincount(flat, weights=zs[:n].imag, minlength=size)
    return (re + 1j * im).reshape(n_b, -1)


def batch_means(approx: FourierApprox, sums: np.ndarray, x: float,
                n_s: int) -> np.ndarray:
    """Mean of G(x) over each batch of n_s shots, from the sums S[r, j + d].

    An einsum, not ``sums @ kernel``: it calls no BLAS, and a threaded
    BLAS can take milliseconds to start on a product this small."""
    return approx.total_weight / n_s * np.einsum("rj,j->r", sums, approx.kernel(x))


def _certify_sums(approx: FourierApprox, sums: np.ndarray, x: float,
                  eta: float, n_s: int) -> int:
    """:func:`certify`'s vote on the per-batch sums S[r, j + d]."""
    means = batch_means(approx, sums, x, n_s)
    c = int(np.sum(means.real >= 0.75 * eta))
    return 1 if c <= sums.shape[0] / 2 else 0


def certify(approx: FourierApprox, js, zs, x: float, eta: float,
            n_s: int, n_b: int) -> int:
    """1 is evidence that C(x - delta) < eta; 0 that C(x + delta) > eta/2.

    Counts batches whose mean estimator (real part) clears (3/4) eta and
    majority-votes.
    """
    return _certify_sums(approx, _shot_sums(approx, js, zs, n_s, n_b), x, eta, n_s)


SEARCH_PAD = 3.0  # bracket extension beyond +-pi/3, in units of delta


def bracket_iterations(delta: float) -> int:
    """Iteration count of the shifted-midpoint bisection from the padded
    bracket: each step maps the width w to w/2 + (2/3) delta until it reaches
    2 delta."""
    w = 2.0 * math.pi / 3.0 + 2 * SEARCH_PAD * delta
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
    return _invert_sums(approx, _shot_sums(approx, js, zs, n_s, n_b), eta,
                        delta, n_s)


def _invert_sums(approx: FourierApprox, sums: np.ndarray, eta: float,
                 delta: float, n_s: int) -> float:
    """InvertCDF on the per-batch sums S[r, j + d] of the pool.

    Its accuracy is (4/3) delta, not delta.  A vote of 0 at x is evidence
    that x + delta >= x0, the first eta-crossing, and moves the right end to
    x + (2/3) delta >= x0 - delta/3; a vote of 1 is evidence that
    x - delta < x0 and moves the left end to x - (2/3) delta < x0 + delta/3.
    So x_L < x0 + delta/3 and x_R >= x0 - delta/3 throughout, and the
    midpoint of the last bracket, of width at most 2 delta, lies within
    (4/3) delta of x0.
    """
    x_left = -math.pi / 3.0 - SEARCH_PAD * delta
    x_right = math.pi / 3.0 + SEARCH_PAD * delta
    max_iter = bracket_iterations(delta) + 2
    iterations = 0
    while x_right - x_left > 2.0 * delta:
        if iterations > max_iter:
            raise EstimationError("binary search failed to contract")
        x_mid = 0.5 * (x_left + x_right)
        if _certify_sums(approx, sums, x_mid, eta, n_s) == 0:
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


def _gse_approx(spectral: SpectralData, cfg: EstimationConfig) -> FourierApprox:
    """Approximant of the GSE stage: delta = tau * epsilon, budget eta/8.
    epsilon is an energy in the units of H; what bounds it is delta, which
    must lie within the Fourier construction's range."""
    delta = spectral.tau * cfg.epsilon
    if not delta < MAX_DELTA:
        raise PreconditionError(
            f"GSE accuracy epsilon={cfg.epsilon} gives delta = tau*epsilon = "
            f"{delta}, outside the Fourier construction's range (0, pi/6)")
    return build_fourier_approx(delta, cfg.eta / 8.0)


def estimate_gse(spectral: SpectralData, phi0, cfg: EstimationConfig, *,
                 nu: float | None = None, rng=None,
                 approx: FourierApprox | None = None, law=None) -> GSEReport:
    """EstimateGSE, the GSE stage: value = x*/tau.

    The Heaviside approximant (by default at delta = tau * epsilon with budget
    eta/8) sets the search resolution delta; the shared (J, Z) pool is drawn
    once into per-batch sums, which the Certify binary search inverts.  The
    search lands within (4/3) delta of the crossing (:func:`_invert_sums`),
    so at the default delta the value is within (4/3) epsilon of lambda_0,
    not epsilon, with probability at least 1 - nu.
    ``law`` is the estimate's law of :func:`expectation_table_1d` at the
    approximant's degree (:attr:`hadamard.OracleTables.gse`), when it has one.
    """
    phi0 = as_state(phi0, dim=spectral.dim)
    nu = cfg.nu if nu is None else nu
    approx = approx if approx is not None else _gse_approx(spectral, cfg)
    n_s, n_b = certify_schedule(approx.total_weight, cfg.eta, nu, approx.delta,
                                cfg.n_s, cfg.n_b)
    rng = rng if rng is not None else stage_rng(cfg.seed, "gse")
    budget = EvolutionBudget()
    if law is None:
        law = hadamard.outcome_law(expectation_table_1d(spectral, phi0, approx.d))
    sums = _pool_sums(approx, law, n_b, n_s, rng, budget, spectral.tau)
    x_star = _invert_sums(approx, sums, cfg.eta, approx.delta, n_s)
    return GSEReport(
        value=x_star / spectral.tau, budget=budget, approx=approx, sums=sums,
        intermediate={"x_star": x_star, "d_gse": approx.d,
                      "n_s": n_s, "n_b": n_b, "tau": spectral.tau,
                      "total_weight_gse": approx.total_weight})


def good_point(x_star: float, tau: float, gamma: float, *,
               epsilon: float) -> float:
    """x* + tau*gamma/2, the evaluation point clear of both the ground jump
    and the first excited jump.  epsilon is the accuracy x*/tau is known to
    have, |x*/tau - lambda_0| <= epsilon, which must lie below gamma/4; the
    point is then at least tau*(gamma/2 - epsilon) from both jumps."""
    if not 0.0 < epsilon < gamma / 4.0:
        raise PreconditionError(
            f"good point needs epsilon in (0, gamma/4); got epsilon={epsilon}, "
            f"gamma={gamma}")
    return x_star + tau * gamma / 2.0


def group_means(approx: FourierApprox, law: np.ndarray, x_good: float,
                n_g: int, k: int, rng, budget: EvolutionBudget, tau: float, *,
                alpha=1.0) -> np.ndarray:
    """Means at x_good of n_g groups of k fresh shots from the cell law of a
    table E (as in :func:`_pool_sums`), each an estimate of
    sum_j c_j e^{ijx} E_j for a one-time table or of the two-time sum
    sum_{j,j'} c_j c_j' e^{i(j+j')x} E_{j,j'}."""
    lead = approx.total_weight * approx.kernel(x_good) if law.ndim == 3 else None
    sums = _pool_sums(approx, law, n_g, k, rng, budget, tau, lead=lead, alpha=alpha)
    return batch_means(approx, sums, x_good, k)


def gse_delta(tau: float, gamma: float) -> float:
    """Search resolution of the GSE stage of a property estimate,
    tau*gamma/8; :func:`_invert_sums` puts x* within (4/3) of it,
    tau*gamma/6, of tau*lambda_0."""
    return tau * gamma / 8.0


def property_delta(tau: float, gamma: float) -> float:
    """Transition width of the property approximant: min(tau*gamma/3,
    0.8 MAX_DELTA).

    tau*gamma/3 is the good point's margin.  x* lies within tau*gamma/6 of
    tau*lambda_0 (:func:`gse_delta`), so x_good = x* + tau*gamma/2 lies in
    [tau*lambda_0 + tau*gamma/3, tau*lambda_0 + 2 tau*gamma/3], at least
    tau*gamma/3 from the ground jump and from the first excited jump at
    tau*lambda_1 >= tau*(lambda_0 + gamma).  An exact x_good =
    tau*(lambda_0 + gamma/2) has the larger margin tau*gamma/2.  The cap,
    2 pi/15, keeps the Fourier construction inside (0, MAX_DELTA) where
    tau*gamma/3 would leave it; as tau*gamma <= 2 pi/3 on the normalized
    spectrum, it is never below tau*gamma/5.
    """
    return min(tau * gamma / 3.0, 0.8 * MAX_DELTA)


def _property_approx(spectral: SpectralData, cfg: EstimationConfig) -> FourierApprox:
    """Approximant of the overlap and weighted stages, at delta =
    :func:`property_delta` with budget eta*epsilon/32.  It reads the CDFs
    at x_good to within the budget only where x_good is at least delta from
    both jumps.  epsilon is the dimensionless property accuracy, in (0, 1)."""
    if not cfg.epsilon < 1.0:
        raise PreconditionError(f"epsilon must lie in (0, 1), got {cfg.epsilon}")
    gamma = cfg.gamma if cfg.gamma is not None else spectral.gap
    return build_fourier_approx(property_delta(spectral.tau, gamma),
                                cfg.eta * (cfg.epsilon / 4.0) / 8.0)


def _stage_schedule(approx: FourierApprox, cfg: EstimationConfig, nu: float, *,
                    eta: float | None = None, two_time: bool = False,
                    alpha: float = 1.0, scale=1, real: bool = False):
    """(n_g, k) of the overlap or the weighted stage at failure probability nu,
    for the target eta * epsilon/4 (eta = cfg.eta unless given).

    One shot's second moment is at most b W^2 on a one-time table and
    b alpha^2 W^4 on a two-time one (alpha = 1 for a unitary observable),
    times scale = sum |u|^2 over the terms of a weighted stage: b = 2 bounds
    E|z|^2, the real and imaginary parts together, and b = 3/2 bounds the
    real part alone, for a stage that reads only its real part (``real``).

    A shot's value is z e^{i psi} times W (or W^2 and a term's u, which
    scale it by |u| and shift psi by arg u), psi the kernel phase of its
    cell.  z = X + iY is an X run and a Y run drawn independently given the
    cell, with E[X] + i E[Y] = e, the cell's table entry, so
    Re(z e^{i psi}) = X cos psi - Y sin psi has
    E[Re^2] = cos^2 psi E[X^2] + sin^2 psi E[Y^2] - sin 2psi E[X] E[Y].
    A +-1 shot has E[X^2] = E[Y^2] = 1 and |Re e Im e| <= |e|^2/2 <= 1/2,
    so E[Re^2] <= 3/2.  A block shot has E[X^2] = E[Y^2] = (alpha^2 + nsq)/2
    <= alpha^2 and |Re e Im e| <= ||O||^2/2 <= alpha^2/2, so
    E[Re^2] <= 3/2 alpha^2.  Both are reached: e = (1 - i)/sqrt 2 at
    psi = pi/4 gives 1/2 + 1/2 + 1/2.
    """
    w = approx.total_weight
    per_unit = 1.5 if real else 2.0
    bound = per_unit * alpha ** 2 * w ** 4 if two_time else per_unit * w ** 2
    return mom_schedule(scale * bound, cfg.eta if eta is None else eta,
                        cfg.epsilon / 4.0, nu, cfg.n_g, cfg.k)


def estimate_overlap(spectral: SpectralData, phi0, x_good: float,
                     cfg: EstimationConfig, *, approx: FourierApprox | None = None,
                     nu: float | None = None, budget: EvolutionBudget | None = None,
                     law=None) -> float:
    """The overlap stage: median-of-means estimate of p0 = C(x_good), of
    which only the real part is read, so it is scheduled at the real part's
    bound; ``law`` as in :func:`estimate_gse`
    (:attr:`hadamard.OracleTables.overlap`).  x_good must sit at least the
    approximant's delta (by default :func:`property_delta`) from both the
    ground jump and the first excited jump."""
    phi0 = as_state(phi0, dim=spectral.dim)
    nu = cfg.nu if nu is None else nu
    approx = approx if approx is not None else _property_approx(spectral, cfg)
    n_g, k = _stage_schedule(approx, cfg, nu, real=True)
    budget = budget if budget is not None else EvolutionBudget()
    if law is None:
        law = hadamard.outcome_law(expectation_table_1d(spectral, phi0, approx.d))
    return median_of_means(group_means(approx, law, x_good, n_g, k,
                                       stage_rng(cfg.seed, "overlap"), budget,
                                       spectral.tau), n_g, 1).real


def estimate_ratio(spectral: SpectralData, phi0, cfg: EstimationConfig,
                   observables, *, terms=((1, 0),), one_time: bool = False,
                   alpha: float | None = None,
                   x_good: float | None = None) -> EstimateReport:
    """The property estimate: the weighted stage over the overlap p0_bar,
    both read at x_good, after EstimateGSE and the good point (both skipped
    when ``x_good`` is given).  GSE searches at delta_gse = tau*gamma/8
    (:func:`gse_delta`) with Fourier budget eta/8, which gives accuracy
    gamma/6 in the units of H; the overlap and weighted stages run on the
    approximant at delta_prop (:func:`property_delta`, tau*gamma/3 below
    its cap) with budget eta*epsilon/32, each targeting epsilon/4; nu is
    shared evenly over the stages run.  A given ``x_good`` must sit at
    least delta_prop from both jumps.  The record carries delta_prop, and
    delta_gse when the GSE stage runs.

    The overlap stage targets eta*epsilon/4, at the promised floor p0 >= eta.
    The weighted stage targets p_lo*epsilon/4 with
    p_lo = min(1, max(eta, p0_bar - 9 eta epsilon/32)), a lower bound on p0
    read off the overlap just measured: except with probability nu/stages,
    p0_bar lies within eta*epsilon/4 (sampling) + eta*epsilon/32 (Fourier
    bias) of p0, so p_lo <= p0 on that event.  The weighted shots are fresh
    draws, independent of the overlap's, so on that event the numerator's
    sampling error p_lo*epsilon/4 is at most epsilon/4 of p0, its share of
    the ratio error as at p_lo = eta; the nu split is unchanged.  Certify's
    batches run before any overlap exists and stay at eta, and a pinned
    ``cfg.k`` pins the weighted stage's group size.

    Term (u, index) of ``terms`` samples the weighted table of the next
    observable from weighted stream ``index``; a group's value is sum u *
    (the term's group mean), on one schedule at sum |u|^2 times one table's
    per-shot bound.  Every stage draws from the cell law of its table, which
    :func:`hadamard.oracle_tables` yields in the table's place: one-time
    with ``one_time``, block with ``alpha`` (shots of the post-selected
    circuit of a block encoding of norm alpha) and two-time otherwise.
    Each weighted law is dropped before the next one is built; the instance
    keeps the last estimate's laws (a block law, keyed with alpha, takes 32 B
    per cell), so an estimate at a new seed pays only for the key.

    When the target sum u O is Hermitian (``real_target`` in the record),
    the numerator <phi0| F(x - tau H) sum u O F(x - tau H) |phi0> is real,
    as F is real on the real line (conjugate-symmetric coefficients), and
    so is the one-time <phi0| sum u O F(x - tau H) |phi0> when O commutes
    with H.  The estimate is then Re of the median over p0_bar, and the
    weighted stage is scheduled at the real part's per-shot bound, 3/4 of
    the complex one (:func:`_stage_schedule`), as the overlap stage always
    is.  A block encoding is Hermitian by construction (:func:`hadamard.
    embed_block`); other targets are decided by :func:`hadamard.hermitian_sum`.
    Any target not found Hermitian keeps its imaginary part and the complex
    bound.
    """
    gamma = cfg.gamma if cfg.gamma is not None else spectral.gap
    if gamma <= 0.0:
        raise PreconditionError("pipelines need a positive spectral gap")
    block = alpha is not None
    kind = "block" if block else "one-time" if one_time else "two-time"
    alpha = alpha if block else 1.0
    observables = [hadamard.observable(op, spectral.dim) for op in observables]
    real = block or hadamard.hermitian_sum(observables, [u for u, _ in terms])
    stages = 3 if x_good is None else 2
    nu = cfg.nu / stages
    budget, inter = EvolutionBudget(), {"gamma": gamma}
    approx = _property_approx(spectral, cfg)
    gse_approx = None
    if x_good is None:
        gse_approx = build_fourier_approx(gse_delta(spectral.tau, gamma),
                                          cfg.eta / 8.0)
    tables = hadamard.oracle_tables(
        spectral, phi0, observables, approx.d, kind=kind, alpha=alpha,
        d_gse=None if gse_approx is None else gse_approx.d)
    item = next(tables)
    if x_good is None:
        gse = estimate_gse(spectral, phi0, cfg, nu=nu, approx=gse_approx,
                           law=item.gse)
        x_good = good_point(gse.intermediate["x_star"], spectral.tau, gamma,
                            epsilon=gamma / 6.0)  # (4/3) delta_gse / tau
        budget = gse.budget
        inter.update(gse.intermediate)
        inter["delta_gse"] = gse_approx.delta
    p0_bar = estimate_overlap(spectral, phi0, x_good, cfg, approx=approx, nu=nu,
                              budget=budget, law=item.overlap)
    if p0_bar <= 0.0:
        raise EstimationError(f"overlap estimate {p0_bar} is not positive")
    n_g, k = _stage_schedule(approx, cfg, nu, real=True)
    inter.update({"x_good": x_good, "p0_bar": p0_bar,
                  "delta_prop": approx.delta, "d_prop": approx.d,
                  "n_g": n_g, "k_overlap": k,
                  "total_weight_prop": approx.total_weight})
    p_lo = min(1.0, max(cfg.eta, p0_bar - 9.0 * cfg.eta * cfg.epsilon / 32.0))
    n_g, k = _stage_schedule(approx, cfg, nu, eta=p_lo, two_time=kind != "one-time",
                             alpha=alpha, scale=sum(abs(u) ** 2 for u, _ in terms),
                             real=real)
    inter.update({"p_lo": p_lo, "k_weighted": k, "real_target": real})
    values = None
    for u, index in terms:
        item = item or next(tables)
        means = group_means(approx, item.weighted, x_good, n_g, k,
                            stage_rng(cfg.seed, "weighted", index=index),
                            budget, spectral.tau, alpha=alpha)
        item = None
        means = means if u == 1 else u * means  # u = 1: the means, bit for bit
        values = means if values is None else values + means
    num = median_of_means(values, n_g, 1)
    if real:
        num = complex(num.real)
    inter["p0o0_bar"] = num
    if block:
        inter["alpha"] = alpha
    return EstimateReport(value=num / p0_bar, budget=budget, intermediate=inter)


# --- end-to-end pipelines -----------------------------------------------------

def _unitary_observable(o_operator, dim: int) -> hadamard.Observable:
    """O checked unitary, then checked to act on the instance, before any
    shot is drawn; its signed-permutation form is found here, once."""
    obs = hadamard.require_unitary(hadamard.observable(o_operator))
    return hadamard.observable(obs, dim)


def estimate_gsprop_commutative(spectral: SpectralData, phi0, o_operator,
                                cfg: EstimationConfig) -> EstimateReport:
    """Property pipeline for a unitary observable commuting with H.

    ||H O - O H||_F is read in the eigenbasis, where V^H [H, O] V has entries
    (lambda_k - lambda_l) (V^H O V)_kl, so H is never formed; V^H O V is
    formed from V = V I by the eigenbasis maps of ``spectral``.
    """
    obs = _unitary_observable(o_operator, spectral.dim)
    lam = spectral.eigenvalues
    v = spectral.from_eigenbasis(np.eye(lam.size))
    comm = np.linalg.norm((lam[:, None] - lam) * spectral.to_eigenbasis(obs.apply(v)))
    if comm > COMMUTATION_TOL * max(1.0, np.linalg.norm(lam)):
        raise PreconditionError(f"observable does not commute with H ({comm:.3e})")
    return estimate_ratio(spectral, phi0, cfg, [obs], one_time=True)


def estimate_gsprop_general(spectral: SpectralData, phi0, o_operator,
                            cfg: EstimationConfig) -> EstimateReport:
    """Property pipeline for a general unitary observable (two-time circuit)."""
    obs = _unitary_observable(o_operator, spectral.dim)
    return estimate_ratio(spectral, phi0, cfg, [obs])


def estimate_gsprop_block(spectral: SpectralData, phi0,
                          block: hadamard.BlockEncoding,
                          cfg: EstimationConfig) -> EstimateReport:
    """Property pipeline for a block-encoded (possibly non-unitary) observable.

    Identical to the general pipeline except the two-time shots come from the
    post-selected circuit (:func:`estimate_ratio` with ``alpha``).
    """
    return estimate_ratio(spectral, phi0, cfg, [block.operator], alpha=block.alpha)
