"""Low Fourier-degree approximation of the 2pi-periodic Heaviside function.

The approximant is built by mollifying the Heaviside step with a normalized
Chebyshev kernel, then shifting and rescaling so the result lands in [0, 1].
Coefficients are stored in the plain exponential-sum convention

    F(x) = sum_{|j| <= d} c_j e^{ijx},

so the total weight ``sum |c_j|`` is exactly the importance-sampling
normalization used by the estimators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

# |c_j| * |j| stays below this for every valid construction (epsilon < 1).
COEFF_DECAY_CONSTANT = 2.0 / math.pi

RANGE_TOL = 1e-9
DEGREE_CAP = 50_000
CHECK_GRID = 2 ** 16  # validity-check grid, refined only for degrees >= 2^15
COARSE_GRID = 2 ** 12  # every 16th point of CHECK_GRID, the same floats
COARSE_SLACK = 1e-12  # far above the ~1e-15 gap between the two syntheses


class FourierConstructionError(ValueError):
    pass


def heaviside(x):
    """2pi-periodic step: 1 on [2k*pi, (2k+1)*pi), 0 on [(2k-1)*pi, 2k*pi)."""
    wrapped = np.mod(x, 2.0 * math.pi)
    # np.mod may round up to the modulus itself for tiny negative inputs
    wrapped = np.where(wrapped >= 2.0 * math.pi, 0.0, wrapped)
    return np.where(wrapped < math.pi, 1, 0)


def heaviside_fourier_coeff(j: int | np.ndarray) -> complex | np.ndarray:
    """Plain-convention coefficient h_j of the periodic Heaviside function:
    h_0 = 1/2, h_j = -i/(pi*j) for odd j, 0 for even nonzero j.

    (In the sqrt(2pi)-normalized convention this is sqrt(2pi) * h_j.)
    An integer ``j`` gives a complex; an integer array gives a complex array
    of its shape.
    """
    j = np.asarray(j)
    odd = j % 2 == 1
    h = np.where(odd, -1j / (math.pi * np.where(odd, j, 1)), 0.0 + 0.0j)
    h = np.where(j == 0, 0.5 + 0.0j, h)
    return complex(h) if h.ndim == 0 else h


def _kernel_argument(x, delta: float):
    return 1.0 + 2.0 * (np.cos(x) - math.cos(delta)) / (1.0 + math.cos(delta))


def chebyshev_t(d: int, y):
    """T_d evaluated stably: cos form on [-1, 1], cosh form for |y| > 1."""
    y = np.asarray(y, dtype=float)
    out = np.empty_like(y)
    inside = np.abs(y) <= 1.0
    out[inside] = np.cos(d * np.arccos(y[inside]))
    above = y > 1.0
    out[above] = np.cosh(d * np.arccosh(y[above]))
    below = y < -1.0
    out[below] = (-1.0) ** d * np.cosh(d * np.arccosh(-y[below]))
    return out


def _check_mollifier_delta(delta: float) -> None:
    if not 0.0 < delta:
        raise FourierConstructionError(f"delta must be positive, got {delta}")
    if math.tan(delta / 2.0) > 1.0 - 1.0 / math.sqrt(2.0):
        raise FourierConstructionError(
            f"delta={delta} outside mollifier validity range "
            "(tan(delta/2) must not exceed 1 - 1/sqrt(2))")


def _exact_grid_size(d: int) -> int:
    """Size of a uniform grid on which a degree-d trigonometric polynomial is
    sampled without aliasing: a power of two above 4d, so comfortably > 2d."""
    return 1 << (4 * d).bit_length()


def _kernel_samples(d: int, delta: float, n_grid: int) -> np.ndarray:
    x = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    return chebyshev_t(d, _kernel_argument(x, delta))


def mollifier_norm(d: int, delta: float, n_grid: int | None = None) -> float:
    """Normalization integral of the Chebyshev kernel over one period.

    The kernel is a trigonometric polynomial of degree d, so the uniform-grid
    rule is exact (not just spectrally accurate) once ``n_grid > 2d``; a
    missing or coarser ``n_grid`` is replaced by the construction's grid,
    the first power of two above 4d.
    """
    _check_mollifier_delta(delta)
    if n_grid is None or n_grid <= 2 * d:
        n_grid = _exact_grid_size(d)
    return 2.0 * math.pi * float(_kernel_samples(d, delta, n_grid).mean())


def mollifier(d: int, delta: float, x) -> np.ndarray:
    """Normalized kernel M_{d,delta}(x); integrates to 1 over [-pi, pi]."""
    _check_mollifier_delta(delta)
    if d < 1:
        raise FourierConstructionError("mollifier degree must be >= 1")
    norm = mollifier_norm(d, delta)
    return chebyshev_t(d, _kernel_argument(np.asarray(x, dtype=float), delta)) / norm


@dataclass(frozen=True)
class FourierApprox:
    """Degree-d approximant of the periodic Heaviside function.

    coefficients[j + d] holds c_j; phases are the arguments of c_j and
    total_weight is sum |c_j|.
    """

    d: int
    delta: float
    epsilon: float
    coefficients: np.ndarray
    phases: np.ndarray
    total_weight: float

    @property
    def js(self) -> np.ndarray:
        return np.arange(-self.d, self.d + 1)

    @property
    def abs_coefficients(self) -> np.ndarray:
        return np.abs(self.coefficients)

    @cached_property
    def alias_picks(self) -> np.ndarray:
        """J of an alias draw by index: entry 2c holds the alias of cell c
        and entry 2c + 1 cell c itself, both as j = cell - d."""
        _, alias = self.alias_tables
        return np.stack((alias, np.arange(alias.size)), axis=1).reshape(-1) - self.d

    @cached_property
    def alias_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Vose alias tables (accept, alias) over the cells j + d of
        Pr[J = j] = |c_j| / total_weight, built on first use."""
        scaled = self.abs_coefficients / self.total_weight * self.coefficients.size
        n = scaled.size
        accept = np.ones(n)
        alias = np.arange(n)
        small = [i for i in range(n) if scaled[i] < 1.0]
        large = [i for i in range(n) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            g = large.pop()
            accept[s] = scaled[s]
            alias[s] = g
            scaled[g] = scaled[g] + scaled[s] - 1.0
            (small if scaled[g] < 1.0 else large).append(g)
        return accept, alias

    def phase(self, j: int) -> float:
        return float(self.phases[j + self.d])

    def kernel(self, x: float) -> np.ndarray:
        """e^{i(theta_j + j x)} at cell j + d: c_j e^{ijx} / |c_j| over j = -d..d."""
        return np.exp(1j * (self.phases + self.js * x))


def fourier_coefficients_at(d: int, delta: float, epsilon: float) -> np.ndarray:
    """Raw coefficient construction at a fixed degree (no validity search).

    c'_j = 2pi * m_j * h_j for the mollified step, then the j = 0 entry is
    shifted by eps_int/4 and everything is divided by 1 + (5/4) eps_int.
    The shift-and-rescale leaves a permanent plateau bias close to eps_int,
    so the internal budget is epsilon/2 and the remaining half is left for
    the mollifier tail; the final sup bound is enforced numerically.
    """
    _check_mollifier_delta(delta)
    if not 0.0 < epsilon < 1.0:
        raise FourierConstructionError(f"epsilon must be in (0, 1), got {epsilon}")
    n_grid = _exact_grid_size(d)
    samples = _kernel_samples(d, delta, n_grid)
    norm = 2.0 * math.pi * float(samples.mean())
    spectrum = np.fft.fft(samples) / n_grid
    js = np.arange(-d, d + 1)
    # grid starts at -pi: DFT bin j picks up a (-1)^j twist
    m = spectrum[np.mod(js, n_grid)] * (-1.0) ** js / norm
    coeffs = 2.0 * math.pi * m * heaviside_fourier_coeff(js)
    eps_int = 0.5 * epsilon
    coeffs[d] = coeffs[d] + eps_int / 4.0
    coeffs /= 1.0 + 1.25 * eps_int
    return coeffs


def evaluate_coefficients(coeffs: np.ndarray, x) -> np.ndarray:
    """Real value of ``sum_j c_j e^{ijx}`` for a symmetric coefficient array."""
    d = (coeffs.size - 1) // 2
    x = np.asarray(x, dtype=float)
    acc = np.full(x.shape, coeffs[d].real, dtype=float)
    phase = np.exp(1j * x)
    running = np.ones_like(phase)
    for j in range(1, d + 1):
        running = running * phase
        c = coeffs[d + j]
        if c != 0.0:
            acc += 2.0 * (c.real * running.real - c.imag * running.imag)
    return acc


@lru_cache(maxsize=4)
def _circle_grid(n_grid: int) -> np.ndarray:
    """The uniform grid x_k = -pi + 2pi k / n, ascending, built once per size
    and read-only."""
    x = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    x.flags.writeable = False
    return x


def _synthesize_on_circle(coeffs: np.ndarray, n_grid: int):
    """Values of F on the uniform grid x_k = -pi + 2pi k / n (the shared
    read-only :func:`_circle_grid`), by a real inverse FFT of c_0..c_d; like
    :func:`evaluate_coefficients` it assumes conjugate symmetry."""
    d = (coeffs.size - 1) // 2
    if n_grid <= 2 * d:
        raise FourierConstructionError("synthesis grid too coarse for degree")
    # grid starts at -pi: coefficient j picks up a (-1)^j twist
    twisted = coeffs[d:] * (-1.0) ** np.arange(d + 1)
    values = np.fft.irfft(twisted, n_grid) * n_grid
    return _circle_grid(n_grid), values


def _end_values(coeffs: np.ndarray, delta: float) -> np.ndarray:
    """F at delta, pi - delta, -delta and -pi + delta (conjugate symmetry
    assumed), from one 4 x d phase product."""
    d = (coeffs.size - 1) // 2
    x = np.array([delta, math.pi - delta, -delta, -math.pi + delta])
    phases = np.exp(1j * np.outer(x, np.arange(1, d + 1)))
    return coeffs[d].real + 2.0 * (phases @ coeffs[d + 1:]).real


def _construction_is_valid(coeffs: np.ndarray, delta: float, epsilon: float) -> bool:
    """Range within [-RANGE_TOL, 1 + RANGE_TOL] on the check grid, and error
    within 0.98 epsilon on the plateau [delta, pi - delta] and the trough
    [-pi + delta, -delta], on the grid and at their four end points.

    The four end points cost a 4 x d product, so they are tested first.
    Then the COARSE_GRID grid, whose points are points of the check grid,
    rejects a construction that misses a bound there by more than
    COARSE_SLACK, which the check grid would also reject; any other goes on
    to the check grid itself."""
    # 2% slack so the coarser 20001-point acceptance grids stay below epsilon
    budget = 0.98 * epsilon
    ends = _end_values(coeffs, delta)
    if not (abs(ends[0] - 1.0) <= budget and abs(ends[1] - 1.0) <= budget
            and abs(ends[2]) <= budget and abs(ends[3]) <= budget):
        return False
    d = (coeffs.size - 1) // 2
    n_grid = CHECK_GRID if CHECK_GRID > 2 * d else _exact_grid_size(d)
    if 2 * d < COARSE_GRID < n_grid and not _within_bounds(
            coeffs, delta, budget, COARSE_GRID, COARSE_SLACK):
        return False
    return _within_bounds(coeffs, delta, budget, n_grid)


def _within_bounds(coeffs: np.ndarray, delta: float, budget: float, n_grid: int,
                   slack: float = 0.0) -> bool:
    """The range and the plateau and trough errors of
    :func:`_construction_is_valid` on the n_grid-point grid, each bound
    widened by ``slack``; the plateau and the trough are index ranges of
    the ascending grid."""
    x, values = _synthesize_on_circle(coeffs, n_grid)
    if values.min() < -RANGE_TOL - slack or values.max() > 1.0 + RANGE_TOL + slack:
        return False
    plateau = slice(np.searchsorted(x, delta, side="left"),
                    np.searchsorted(x, math.pi - delta, side="right"))
    trough = slice(np.searchsorted(x, -math.pi + delta, side="left"),
                   np.searchsorted(x, -delta, side="right"))
    return (np.abs(values[plateau] - 1.0).max() <= budget + slack
            and np.abs(values[trough]).max() <= budget + slack)


def degree_for(delta: float, epsilon: float) -> int:
    """Smallest degree (up to bisection granularity) whose construction meets
    the range and sup-error requirements, found by doubling then bisecting."""
    _check_mollifier_delta(delta)
    if not 0.0 < epsilon < 1.0:
        raise FourierConstructionError(f"epsilon must be in (0, 1), got {epsilon}")
    # keep T_d below float overflow: its peak grows like exp(d * acosh(y_max))
    y_max = _kernel_argument(0.0, delta)
    cap = min(DEGREE_CAP, int(680.0 / math.acosh(y_max)))
    d = max(8, int(math.ceil(2.0 / delta)))
    while not _construction_is_valid(fourier_coefficients_at(d, delta, epsilon),
                                     delta, epsilon):
        d *= 2
        if d > cap:
            raise FourierConstructionError(
                f"degree search exceeded cap {cap} for "
                f"delta={delta}, epsilon={epsilon}")
    lo, hi = d // 2, d
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _construction_is_valid(fourier_coefficients_at(mid, delta, epsilon),
                                  delta, epsilon):
            hi = mid
        else:
            lo = mid
    return hi


def _check_conjugate_symmetric(c: np.ndarray) -> None:
    if np.abs(c - np.conj(c[::-1])).max() > 1e-10:
        raise FourierConstructionError("coefficients are not conjugate-symmetric")


def _validate(approx: FourierApprox) -> None:
    c = approx.coefficients
    _check_conjugate_symmetric(c)
    js = np.abs(approx.js)
    nonzero = js > 0
    if (np.abs(c[nonzero]) * js[nonzero]).max() > COEFF_DECAY_CONSTANT:
        raise FourierConstructionError("coefficient decay bound violated")
    if not _construction_is_valid(c, approx.delta, approx.epsilon):
        raise FourierConstructionError("constructed approximant failed validation")


MAX_DELTA = math.pi / 6.0  # build_fourier_approx takes delta in (0, MAX_DELTA)


@lru_cache(maxsize=64)
def build_fourier_approx(delta: float, epsilon: float) -> FourierApprox:
    """Build and validate the Heaviside approximant for (delta, epsilon).

    Requires 0 < delta < pi/6 and 0 < epsilon < 1.  The returned object
    satisfies, on dense grids: range within [-1e-9, 1+1e-9], sup error at most
    epsilon away from the jumps, conjugate symmetry, and O(1/|j|) decay.
    """
    if not 0.0 < delta < MAX_DELTA:
        raise FourierConstructionError(f"delta must be in (0, pi/6), got {delta}")
    d = degree_for(delta, epsilon)
    coeffs = fourier_coefficients_at(d, delta, epsilon)
    approx = FourierApprox(
        d=d, delta=delta, epsilon=epsilon, coefficients=coeffs,
        phases=np.angle(coeffs), total_weight=float(np.abs(coeffs).sum()))
    _validate(approx)
    return approx


def evaluate_F(approx: FourierApprox, x):
    """F(x) as a real number.  The coefficients must be conjugate-symmetric,
    which makes the imaginary part of the full sum vanish."""
    _check_conjugate_symmetric(approx.coefficients)
    out = evaluate_coefficients(approx.coefficients, np.atleast_1d(x))
    return out if np.ndim(x) else float(out[0])
