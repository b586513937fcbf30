import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspe.applications import KERNEL_TOL, build_gap_amplified
from gspe.estimators import gse_delta, property_delta
from gspe.fourier import (CHECK_GRID, COARSE_GRID, COEFF_DECAY_CONSTANT, RANGE_TOL,
                          FourierConstructionError, _circle_grid,
                          _construction_is_valid, _end_values,
                          _synthesize_on_circle,
                          build_fourier_approx, degree_for,
                          evaluate_coefficients, evaluate_F,
                          fourier_coefficients_at, heaviside,
                          heaviside_fourier_coeff, mollifier, mollifier_norm)
from gspe.pauli import build_operator
from gspe.serialization import (load_json, parse_linear_system,
                                parse_operator, parse_synthetic)
from gspe.spectral import diagonalize

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def test_heaviside_branch_values():
    assert heaviside(math.pi / 2) == 1
    assert heaviside(-math.pi / 2) == 0
    assert heaviside(math.pi / 2 + 4 * math.pi) == 1
    assert heaviside(0.0) == 1
    assert heaviside(-math.pi) == 0


@given(st.floats(-50, 50))
@settings(max_examples=60, deadline=None)
def test_heaviside_periodic(x):
    assert heaviside(x) == heaviside(x + 2 * math.pi)


def test_mollifier_normalization():
    # independent quadrature oracle: fine trapezoid over one period
    x = np.linspace(-math.pi, math.pi, 200001)
    integral = np.trapezoid(mollifier(40, 0.2, x), x)
    assert abs(integral - 1.0) <= 1e-8


def test_mollifier_bounded_outside_window():
    norm = mollifier_norm(40, 0.2)
    for x in (0.5, -0.5):
        assert abs(mollifier(40, 0.2, np.array([x]))[0]) <= 1.0 / norm + 1e-15


def test_mollifier_even():
    xs = np.linspace(0.01, math.pi, 50)
    assert np.allclose(mollifier(40, 0.2, xs), mollifier(40, 0.2, -xs),
                       atol=1e-12)


def test_mollifier_norm_stable_under_grid_doubling():
    a = mollifier_norm(60, 0.15, 2 ** 16)
    b = mollifier_norm(60, 0.15, 2 ** 17)
    assert abs(a - b) <= 1e-10 * abs(a)


def test_mollifier_rejects_invalid_delta():
    with pytest.raises(FourierConstructionError):
        mollifier(40, 0.6, np.array([0.0]))


def test_heaviside_coefficients():
    # sqrt(2pi) h_1 equals sqrt(2)/(i sqrt(pi)); |.| is about 0.79788
    paper_value = math.sqrt(2.0) / (1j * math.sqrt(math.pi))
    assert abs(math.sqrt(2 * math.pi) * heaviside_fourier_coeff(1)
               - paper_value) <= 1e-15
    assert abs(abs(paper_value) - 0.7978845608) <= 1e-9
    assert heaviside_fourier_coeff(2) == 0
    assert heaviside_fourier_coeff(0) == 0.5
    # numeric oracle: (1/2pi) * integral_0^pi e^{-ijx} dx
    x = np.linspace(0.0, math.pi, 400001)
    for j in (1, 3, -1):
        numeric = np.trapezoid(np.exp(-1j * j * x), x) / (2 * math.pi)
        assert abs(numeric - heaviside_fourier_coeff(j)) <= 1e-9


@pytest.fixture(scope="module")
def approx_02_001():
    return build_fourier_approx(0.2, 0.01)


def test_conjugate_symmetry(approx_02_001):
    c = approx_02_001.coefficients
    assert np.abs(c - np.conj(c[::-1])).max() <= 1e-10


def test_coefficient_decay(approx_02_001):
    a = approx_02_001
    js = np.abs(a.js)
    mask = js > 0
    assert (np.abs(a.coefficients[mask]) * js[mask]).max() <= COEFF_DECAY_CONSTANT


def test_range_and_sup_error(approx_02_001):
    a = approx_02_001
    full = np.linspace(-math.pi, math.pi, 20001)
    values = evaluate_coefficients(a.coefficients, full)
    assert values.min() >= -1e-9 and values.max() <= 1.0 + 1e-9
    plateau = np.linspace(0.2, math.pi - 0.2, 20001)
    trough = np.linspace(-math.pi + 0.2, -0.2, 20001)
    sup = max(np.abs(evaluate_coefficients(a.coefficients, plateau) - 1).max(),
              np.abs(evaluate_coefficients(a.coefficients, trough)).max())
    assert sup <= 0.01


def test_evaluate_points(approx_02_001):
    assert abs(evaluate_F(approx_02_001, math.pi / 2) - 1.0) <= 0.01
    assert abs(evaluate_F(approx_02_001, -math.pi / 2)) <= 0.01


def test_evaluate_periodic(approx_02_001):
    xs = np.linspace(-2.0, 2.0, 9)
    a = evaluate_F(approx_02_001, xs)
    b = evaluate_F(approx_02_001, xs + 2 * math.pi)
    assert np.allclose(a, b, atol=1e-9)


def test_degree_monotonicity():
    assert degree_for(0.2, 0.01) <= degree_for(0.1, 0.01)
    assert degree_for(0.2, 0.001) >= degree_for(0.2, 0.01)


def test_degree_delta_scaling():
    # measured ratio for the 1/delta law: 62/32 at these parameters
    ratio = degree_for(0.1, 0.01) / degree_for(0.2, 0.01)
    assert 1.5 <= ratio <= 3.0


def test_total_weight_grows_logarithmically():
    # doubling the degree must not push the weight up by more than 1.5x
    base = None
    for d in (64, 128, 256, 512):
        c = fourier_coefficients_at(d, 0.05, 0.01)
        weight = float(np.abs(c).sum())
        if base is not None:
            assert weight / base <= 1.5
        base = weight


def test_rejects_bad_parameters():
    with pytest.raises(FourierConstructionError):
        build_fourier_approx(0.7, 0.01)
    with pytest.raises(FourierConstructionError):
        build_fourier_approx(0.2, 1.5)


def test_acdf_sandwich_desk_scale(rng):
    """(F * p)(x) within [C(x - delta) - eps, C(x + delta) + eps] for a small
    diagonal spectral measure, by direct summation."""
    a = build_fourier_approx(0.15, 0.01)
    positions = rng.uniform(-math.pi / 3, math.pi / 3, size=6)
    weights = rng.dirichlet(np.ones(6))
    grid = np.linspace(-math.pi / 3, math.pi / 3, 2001)
    acdf = np.zeros_like(grid)
    for w, pos in zip(weights, positions):
        acdf += w * evaluate_coefficients(a.coefficients, grid - pos)
    def cdf(x):
        return np.array([weights[positions <= xi].sum() for xi in x])
    lower = cdf(grid - a.delta) - a.epsilon
    upper = cdf(grid + a.delta) + a.epsilon
    assert np.all(acdf >= lower - 1e-9)
    assert np.all(acdf <= upper + 1e-9)


def test_heaviside_coefficients_array_form():
    js = np.arange(-41, 42)
    h = heaviside_fourier_coeff(js)
    assert h.shape == js.shape and h.dtype == complex
    assert np.array_equal(h, [heaviside_fourier_coeff(int(j)) for j in js])
    assert type(heaviside_fourier_coeff(3)) is complex


@pytest.mark.parametrize("d", [8, 49, 196, 530, 1001])
def test_coefficients_match_fine_kernel_grid(d):
    """The kernel is a degree-d trigonometric polynomial, so its spectrum on
    the construction's grid equals the spectrum on a fixed 2^17-point grid."""
    delta, epsilon, n_grid = 0.05, 0.01, 2 ** 17
    x = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    js = np.arange(-d, d + 1)
    # grid starts at -pi: DFT bin j picks up a (-1)^j twist
    m = (np.fft.fft(mollifier(d, delta, x))[np.mod(js, n_grid)]
         * (-1.0) ** js / n_grid)
    h = np.array([heaviside_fourier_coeff(int(j)) for j in js])
    reference = 2.0 * math.pi * m * h
    eps_int = 0.5 * epsilon
    reference[d] += eps_int / 4.0
    reference /= 1.0 + 1.25 * eps_int
    coeffs = fourier_coefficients_at(d, delta, epsilon)
    assert np.abs(coeffs - reference).max() <= 1e-12 * np.abs(reference).max()


@pytest.mark.parametrize("d", [49, 530])
def test_synthesis_matches_direct_evaluation(d):
    coeffs = fourier_coefficients_at(d, 0.05, 0.01)
    x, values = _synthesize_on_circle(coeffs, 2 ** 16)
    assert np.abs(values - evaluate_coefficients(coeffs, x)).max() <= 1e-12


@pytest.mark.parametrize("d", [49, 530])
def test_end_values_match_direct_evaluation(d):
    delta = 0.05
    coeffs = fourier_coefficients_at(d, delta, 0.01)
    ends = evaluate_coefficients(coeffs, np.array(
        [delta, math.pi - delta, -delta, -math.pi + delta]))
    assert np.abs(_end_values(coeffs, delta) - ends).max() <= 1e-12


def _mask_verdicts(coeffs, delta, epsilon):
    """The validity check's four verdicts (range, plateau, trough, end
    points) by its first formula: boolean masks on a freshly built grid."""
    d = (coeffs.size - 1) // 2
    n_grid = CHECK_GRID if CHECK_GRID > 2 * d else 1 << (4 * d).bit_length()
    values = np.fft.irfft(coeffs[d:] * (-1.0) ** np.arange(d + 1), n_grid) * n_grid
    x = -math.pi + 2.0 * math.pi * np.arange(n_grid) / n_grid
    budget = 0.98 * epsilon
    plateau = (x >= delta) & (x <= math.pi - delta)
    trough = (x >= -math.pi + delta) & (x <= -delta)
    ends = evaluate_coefficients(coeffs, np.array(
        [delta, math.pi - delta, -delta, -math.pi + delta]))
    return {"range": not (values.min() < -RANGE_TOL or values.max() > 1.0 + RANGE_TOL),
            "plateau": not np.abs(values[plateau] - 1.0).max() > budget,
            "trough": not np.abs(values[trough]).max() > budget,
            "ends": bool(abs(ends[0] - 1.0) <= budget and abs(ends[1] - 1.0) <= budget
                         and abs(ends[2]) <= budget and abs(ends[3]) <= budget)}


def _trough_bump(d: int, height: float, m: int = 40) -> np.ndarray:
    """Coefficients c_{-d..d} of height * ((1 - sin x) / 2)^m, a bump of
    degree m peaked at x = -pi/2, which leaves the end points untouched."""
    n = 4 * m
    x = 2.0 * math.pi * np.arange(n) / n
    spectrum = np.fft.fft(height * ((1.0 - np.sin(x)) / 2.0) ** m) / n
    out = np.zeros(2 * d + 1, dtype=complex)
    js = np.arange(-m, m + 1)
    out[d + js] = spectrum[np.mod(js, n)]
    return out


# (coefficients at (d, delta, epsilon), check at (delta, epsilon), bump
# height, the verdicts that fail)
VALIDITY_CASES = [
    ((252, 0.05, 0.01), (0.05, 0.01), 0.0, []),
    ((415, 0.02, 0.001), (0.02, 0.001), 0.0, ["range"]),
    ((126, 0.05, 0.01), (0.05, 0.0056), 0.0, ["plateau"]),
    ((252, 0.05, 0.01), (0.05, 0.01), 0.02, ["trough"]),
    ((126, 0.05, 0.01), (0.025, 0.0875), 0.0, ["ends"]),
    ((126, 0.05, 0.01), (0.05, 0.004), 0.0, ["plateau", "ends"]),
    ((104, 0.02, 0.001), (0.02, 0.001), 0.0, ["range", "plateau", "trough", "ends"]),
    # plateau error 0.0059695 on the check grid, 0.0059662 on the coarse one
    ((126, 0.05, 0.01), (0.05, 0.00609), 0.0, ["plateau"]),
]


@pytest.mark.parametrize("built, checked, bump, failing", VALIDITY_CASES)
def test_validity_check_matches_the_mask_formula(built, checked, bump, failing):
    """The check (end points first, then index ranges of the cached grid)
    decides as the AND of the mask formula's four verdicts, on cases that
    fail each verdict alone, several at once, or none."""
    d = built[0]
    coeffs = fourier_coefficients_at(*built) + _trough_bump(d, bump)
    verdicts = _mask_verdicts(coeffs, *checked)
    assert [name for name, ok in verdicts.items() if not ok] == failing
    assert _construction_is_valid(coeffs, *checked) == all(verdicts.values())


def test_coarse_grid_is_every_16th_point_of_the_check_grid():
    assert np.array_equal(_circle_grid(COARSE_GRID), _circle_grid(CHECK_GRID)[::16])


def test_check_grid_is_built_once_and_read_only():
    grid = _circle_grid(CHECK_GRID)
    assert grid is _synthesize_on_circle(fourier_coefficients_at(49, 0.05, 0.01),
                                         CHECK_GRID)[0]
    assert np.array_equal(grid, -math.pi + 2.0 * math.pi * np.arange(CHECK_GRID)
                          / CHECK_GRID)
    with pytest.raises(ValueError):
        grid[0] = 0.0


def _tfim3_gse():
    cfg = load_json(str(CONFIGS / "tfim3-gse.json"))
    spectral = diagonalize(parse_operator(cfg["instance"], "instance"))
    # GSE approximant: delta = tau * epsilon, budget eta / 8
    return [(spectral.tau * cfg["epsilon"], cfg["eta"] / 8.0, 530)]


def _qlss_kappa4():
    cfg = load_json(str(CONFIGS / "qlss-kappa4.json"))
    inst = parse_linear_system(cfg["instance"])
    spectral = diagonalize(build_gap_amplified(inst.a, inst.b, 1.0),
                           require_unique_ground_state=False)
    levels = np.abs(spectral.eigenvalues)
    gamma = levels[levels > KERNEL_TOL].min()
    eta = 0.8 * cfg["qlss"]["overlap"]
    # property approximant at its delta, budget eta * epsilon / 32
    return [(property_delta(spectral.tau, gamma), eta * cfg["epsilon"] / 32.0,
             100)]


def _sweep_gamma():
    cfg = load_json(str(CONFIGS / "sweep-gamma.json"))
    eta, epsilon = cfg["eta"], cfg["epsilon"]
    pairs = []
    for gamma, d_gse, d_prop in zip(cfg["sweep"]["gamma"], (180, 90, 46),
                                    (116, 58, 29)):
        tau = diagonalize(parse_synthetic(cfg["instance"], gamma)[0]).tau
        # the GSE approximant, then the property approximant
        pairs += [(gse_delta(tau, gamma), eta / 8.0, d_gse),
                  (property_delta(tau, gamma), eta * epsilon / 32.0, d_prop)]
    return pairs


def _ensemble_10q():
    n, eta, epsilon = 10, 0.4, 0.1
    def word(letters):
        return "".join(letters.get(q, "I") for q in range(n))
    terms = ([(-0.5, word({q: "Z", q + 1: "Z"})) for q in range(n - 1)]
             + [(-1.0, word({q: "X"})) for q in range(n)]
             + [(-0.1, word({0: "Z"}))])
    spectral = diagonalize(build_operator(terms))
    gamma = spectral.gap
    return [(gse_delta(spectral.tau, gamma), eta / 8.0, 342),
            (property_delta(spectral.tau, gamma), eta * epsilon / 32.0, 234)]


@pytest.mark.parametrize("workload", [_tfim3_gse, _qlss_kappa4, _sweep_gamma,
                                      _ensemble_10q],
                         ids=["tfim3-gse", "qlss-kappa4", "sweep-gamma",
                              "ensemble-10q"])
def test_degree_for_pins_benchmark_degrees(workload):
    """The degrees the benchmark workloads' records report."""
    for delta, epsilon, expected in workload():
        assert degree_for(delta, epsilon) == expected
