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
from functools import lru_cache

import numpy as np

# |c_j| * |j| stays below this for every valid construction (epsilon < 1).
COEFF_DECAY_CONSTANT = 2.0 / math.pi

RANGE_TOL = 1e-9
DEGREE_CAP = 50_000


class FourierConstructionError(ValueError):
    pass


def heaviside(x):
    """2pi-periodic step: 1 on [2k*pi, (2k+1)*pi), 0 on [(2k-1)*pi, 2k*pi)."""
    wrapped = np.mod(x, 2.0 * math.pi)
    # np.mod may round up to the modulus itself for tiny negative inputs
    wrapped = np.where(wrapped >= 2.0 * math.pi, 0.0, wrapped)
    return np.where(wrapped < math.pi, 1, 0)


def heaviside_fourier_coeff(j: int) -> complex:
    """Plain-convention coefficient h_j of the periodic Heaviside function:
    h_0 = 1/2, h_j = -i/(pi*j) for odd j, 0 for even nonzero j.

    (In the sqrt(2pi)-normalized convention this is sqrt(2pi) * h_j.)
    """
    if j == 0:
        return 0.5 + 0.0j
    if j % 2 == 0:
        return 0.0 + 0.0j
    return -1j / (math.pi * j)


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


def _kernel_samples(d: int, delta: float, n_grid: int) -> np.ndarray:
    x = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    return chebyshev_t(d, _kernel_argument(x, delta))


def mollifier_norm(d: int, delta: float, n_grid: int = 2 ** 16) -> float:
    """Normalization integral of the Chebyshev kernel over one period.

    The kernel is a trigonometric polynomial of degree d, so the uniform-grid
    rule is exact (not just spectrally accurate) once ``n_grid > 2d``.
    """
    _check_mollifier_delta(delta)
    if n_grid <= 2 * d:
        n_grid = 1 << max(16, (4 * d).bit_length())
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

    def coefficient(self, j: int) -> complex:
        if abs(j) > self.d:
            return 0.0 + 0.0j
        return complex(self.coefficients[j + self.d])

    def phase(self, j: int) -> float:
        return float(self.phases[j + self.d])


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
    n_grid = 1 << max(16, (4 * d).bit_length())
    samples = _kernel_samples(d, delta, n_grid)
    norm = 2.0 * math.pi * float(samples.mean())
    spectrum = np.fft.fft(samples) / n_grid
    js = np.arange(-d, d + 1)
    # grid starts at -pi: DFT bin j picks up a (-1)^j twist
    m = spectrum[np.mod(js, n_grid)] * (-1.0) ** js / norm
    h = np.array([heaviside_fourier_coeff(int(j)) for j in js])
    coeffs = 2.0 * math.pi * m * h
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


def _synthesize_on_circle(coeffs: np.ndarray, n_grid: int):
    """Values of F on the uniform grid x_k = -pi + 2pi k / n, via inverse FFT."""
    d = (coeffs.size - 1) // 2
    if n_grid <= 2 * d:
        raise FourierConstructionError("synthesis grid too coarse for degree")
    js = np.arange(-d, d + 1)
    padded = np.zeros(n_grid, dtype=complex)
    padded[np.mod(js, n_grid)] = coeffs * (-1.0) ** js
    values = np.fft.ifft(padded) * n_grid
    x = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    return x, values.real


def _construction_is_valid(coeffs: np.ndarray, delta: float, epsilon: float,
                           n_grid: int = 2 ** 16) -> bool:
    d = (coeffs.size - 1) // 2
    if n_grid <= 2 * d:
        n_grid = 1 << ((4 * d).bit_length())
    x, values = _synthesize_on_circle(coeffs, n_grid)
    if values.min() < -RANGE_TOL or values.max() > 1.0 + RANGE_TOL:
        return False
    plateau = (x >= delta) & (x <= math.pi - delta)
    trough = (x >= -math.pi + delta) & (x <= -delta)
    # 2% slack so the coarser 20001-point acceptance grids stay below epsilon
    budget = 0.98 * epsilon
    if np.abs(values[plateau] - 1.0).max() > budget:
        return False
    if np.abs(values[trough]).max() > budget:
        return False
    ends = evaluate_coefficients(coeffs, np.array(
        [delta, math.pi - delta, -delta, -math.pi + delta]))
    return (abs(ends[0] - 1.0) <= budget and abs(ends[1] - 1.0) <= budget
            and abs(ends[2]) <= budget and abs(ends[3]) <= budget)


@lru_cache(maxsize=64)
def degree_for(delta: float, epsilon: float, degree_cap: int = DEGREE_CAP) -> int:
    """Smallest degree (up to bisection granularity) whose construction meets
    the range and sup-error requirements, found by doubling then bisecting."""
    _check_mollifier_delta(delta)
    if not 0.0 < epsilon < 1.0:
        raise FourierConstructionError(f"epsilon must be in (0, 1), got {epsilon}")
    # keep T_d below float overflow: its peak grows like exp(d * acosh(y_max))
    y_max = _kernel_argument(0.0, delta)
    cap = min(degree_cap, int(680.0 / math.acosh(y_max)))
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


@lru_cache(maxsize=64)
def build_fourier_approx(delta: float, epsilon: float) -> FourierApprox:
    """Build and validate the Heaviside approximant for (delta, epsilon).

    Requires 0 < delta < pi/6 and 0 < epsilon < 1.  The returned object
    satisfies, on dense grids: range within [-1e-9, 1+1e-9], sup error at most
    epsilon away from the jumps, conjugate symmetry, and O(1/|j|) decay.
    """
    if not 0.0 < delta < math.pi / 6.0:
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
