"""Worked applications: linear-system solution properties and 1RDM entries.

The linear-system route encodes A x = b into the gap-amplified Hamiltonian
family H'(s) acting on two ancilla qubits plus the system; properties of the
solution are read from the weighted CDF evaluated just above zero, where the
kernel of H'(1) carries |0>|+>|x>.  The 1RDM route expresses a_p^dag a_q
through Jordan-Wigner Majorana strings and estimates their products as the
terms of one weighted stage of the general-unitary pipeline.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import estimators, hadamard
from .estimators import EstimateReport, EstimationConfig, PreconditionError
from .pauli import PauliString, multiply_strings
from .seeding import stage_rng
from .spectral import (SpectralData, diagonalize, evolve, mixed_with_noise,
                       normalized)

KERNEL_TOL = 1e-8
SCHEDULE_STEPS = 64  # interpolation steps of the "schedule" preparation
SCHEDULE_STEP_TIME = 2.0  # evolution time of each step
OVERLAP_FLOOR = 0.25  # least kernel mass an initial state may carry


@dataclass(frozen=True)
class LinearSystemInstance:
    """System A x = b with singular values of A inside [1/kappa, 1]."""

    a: np.ndarray
    b: np.ndarray
    kappa: float

    def __post_init__(self):
        if not 1.0 <= self.kappa < math.inf:
            raise PreconditionError(f"kappa must be a number >= 1, got {self.kappa}")
        svals = singular_values(self.a)
        if svals.max() > 1.0 + 1e-10:
            raise PreconditionError(f"largest singular value {svals.max()} > 1")
        if svals.min() < 1.0 / self.kappa - 1e-10:
            raise PreconditionError(
                f"smallest singular value {svals.min()} below 1/kappa")
        if abs(np.linalg.norm(self.b) - 1.0) > 1e-10:
            raise PreconditionError("right-hand side must be a unit vector")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def solution_state(self) -> np.ndarray:
        return normalized(np.linalg.solve(self.a, self.b))


def singular_values(a) -> np.ndarray:
    """Singular values of A, which must not be singular: its smallest one
    must clear numpy's rank tolerance (largest * size * machine epsilon)."""
    svals = np.linalg.svd(a, compute_uv=False)
    if svals.min() <= svals.max() * max(np.shape(a)) * np.finfo(float).eps:
        raise PreconditionError(
            f"A is singular (smallest singular value {svals.min():.3e})")
    return svals


def random_linear_system(dim: int, kappa: float, rng) -> LinearSystemInstance:
    """Random instance whose singular values span [1/kappa, 1] exactly."""
    def haar(n):
        q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    svals = np.linspace(1.0 / kappa, 1.0, dim)
    a = haar(dim) @ np.diag(svals) @ haar(dim).conj().T
    b = normalized(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    return LinearSystemInstance(a=a, b=b, kappa=kappa)


def build_hg(a, b) -> np.ndarray:
    """Effective Hamiltonian A^dag (I - |b><b|) A; PSD with kernel A^{-1} b."""
    a = np.asarray(a, dtype=complex)
    b = normalized(b)
    proj = np.eye(a.shape[0], dtype=complex) - np.outer(b, b.conj())
    return a.conj().T @ proj @ a


def _abar(a: np.ndarray, s: float) -> np.ndarray:
    dim = a.shape[0]
    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    return (1.0 - s) * np.kron(z, np.eye(dim)) + s * np.kron(x, a)


def _bbar(b: np.ndarray) -> np.ndarray:
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return np.kron(plus, normalized(b))


def build_gap_amplified(a, b, s: float) -> np.ndarray:
    """Gap-amplified Hamiltonian on two ancillas + system:
    sigma^+ (x) Abar(s)^dag (I - P_bbar)  +  sigma^- (x) (I - P_bbar) Abar(s).

    Its square is block diagonal with Abar^dag (I-P) Abar on top, so the
    spectrum is {0, 0, +-sqrt(lambda_i)}.
    """
    if not 0.0 <= s <= 1.0:
        raise PreconditionError(f"schedule parameter s must be in [0, 1], got {s}")
    a = np.asarray(a, dtype=complex)
    bbar = _bbar(np.asarray(b, dtype=complex))
    proj = np.eye(bbar.size, dtype=complex) - np.outer(bbar, bbar.conj())
    abar = _abar(a, s)
    sigma_plus = np.array([[0, 1], [0, 0]], dtype=complex)
    sigma_minus = sigma_plus.T
    return (np.kron(sigma_plus, abar.conj().T @ proj)
            + np.kron(sigma_minus, proj @ abar))


def qlss_target_state(inst: LinearSystemInstance) -> np.ndarray:
    """|0>|+>|x>, the kernel vector of H'(1) carrying the solution."""
    zero = np.array([1.0, 0.0])
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    return np.kron(zero, np.kron(plus, inst.solution_state()))


def assemble_observable(inst: LinearSystemInstance, m_operator) -> np.ndarray:
    """M~ = |0><0| (x) |+><+| (x) M on the enlarged register."""
    m_mat = hadamard.as_matrix(m_operator)
    if m_mat.shape != (inst.dim, inst.dim):
        raise PreconditionError(f"observable shape {m_mat.shape} does not match "
                                f"system dimension {inst.dim}")
    p0 = np.array([[1.0, 0.0], [0.0, 0.0]])
    pplus = 0.5 * np.ones((2, 2))
    return np.kron(p0, np.kron(pplus, m_mat))


def _qlss_spectral(inst: LinearSystemInstance) -> tuple[SpectralData, float]:
    """Eigensystem of H'(1) (degeneracy gate bypassed: the kernel is twofold)
    and the level spacing gamma = smallest nonzero |eigenvalue|."""
    hbar = build_gap_amplified(inst.a, inst.b, 1.0)
    spectral = diagonalize(hbar, require_unique_ground_state=False)
    magnitudes = np.abs(spectral.eigenvalues)
    nonzero = magnitudes[magnitudes > KERNEL_TOL]
    if nonzero.size == 0:
        raise PreconditionError("amplified Hamiltonian has no nonzero levels")
    return spectral, float(nonzero.min())


def prepare_initial_state(inst: LinearSystemInstance, spectral: SpectralData,
                          mode: str, overlap: float, rng) -> np.ndarray:
    """Initial state with the requested overlap on |0>|+>|x>.

    "oracle": the target mixed with noise supported on the strictly positive
    levels, realizing the requested overlap exactly.  "schedule": a
    discretized interpolation of e^{-i t H'(s_k)} applied to |0>|x(0)>; only
    the interface of the cited preparation routine, not its schedule.
    """
    target = qlss_target_state(inst)
    if mode == "oracle":
        positive = spectral.eigenvalues > KERNEL_TOL
        size = int(np.count_nonzero(positive))
        coeffs = np.zeros(spectral.dim, dtype=complex)
        coeffs[positive] = rng.normal(size=size) + 1j * rng.normal(size=size)
        return mixed_with_noise(target, spectral.from_eigenbasis(coeffs), overlap)
    if mode == "schedule":
        zero = np.array([1.0, 0.0])
        minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        state = np.kron(zero, np.kron(minus, normalized(inst.b)))
        for step in range(1, SCHEDULE_STEPS + 1):
            hbar_s = build_gap_amplified(inst.a, inst.b, step / SCHEDULE_STEPS)
            state = evolve(diagonalize(hbar_s, require_unique_ground_state=False),
                           state, SCHEDULE_STEP_TIME)
        achieved = float(np.abs(target.conj() @ state) ** 2)
        if achieved < OVERLAP_FLOOR:
            raise PreconditionError(
                f"schedule preparation reached overlap {achieved:.3f} "
                f"below floor {OVERLAP_FLOOR}")
        return state
    raise PreconditionError(f"unknown initial state mode {mode!r}")


def qlss_estimate(inst: LinearSystemInstance, m_operator, epsilon: float,
                  nu: float, initial_state_mode: str = "oracle", *,
                  overlap: float = 0.6, eta: float | None = None,
                  alpha: float | None = None, seed: int = 0,
                  n_g: int | None = None, k: int | None = None) -> EstimateReport:
    """Estimate <x|M|x> for the solution of A x = b.

    The ground energy stage is skipped (the relevant level of H'(1) is zero by
    construction); the good point is tau*gamma/2 with gamma the smallest
    nonzero level, exact, so tau*gamma/2 from the kernel and from the
    nearest nonzero levels, more than the property approximant's delta
    (:func:`estimators.property_delta`).  M~ annihilating the kernel
    partner |1>|bbar> is asserted, not assumed.
    """
    spectral, gamma = _qlss_spectral(inst)
    m_tilde = assemble_observable(inst, m_operator)
    bbar_branch = np.kron(np.array([0.0, 1.0]), _bbar(inst.b))
    residual = np.linalg.norm(m_tilde @ bbar_branch)
    if residual > 1e-10:
        raise PreconditionError(
            f"observable does not annihilate the |1>|bbar> kernel branch "
            f"(residual {residual:.3e})")
    rng_prep = stage_rng(seed, "state-prep")
    phi0 = prepare_initial_state(inst, spectral, initial_state_mode, overlap,
                                 rng_prep)
    amps = spectral.to_eigenbasis(phi0)
    kernel_mask = np.abs(spectral.eigenvalues) <= KERNEL_TOL
    kernel_mass = float((np.abs(amps[kernel_mask]) ** 2).sum())
    eta = eta if eta is not None else 0.8 * overlap
    if kernel_mass < OVERLAP_FLOOR:
        raise PreconditionError(
            f"initial state overlap {kernel_mass:.3f} below floor {OVERLAP_FLOOR}")
    block = hadamard.embed_block(m_tilde, alpha)
    cfg = EstimationConfig(epsilon=epsilon, eta=eta, nu=nu, seed=seed,
                           gamma=gamma, n_g=n_g, k=k)
    report = estimators.estimate_ratio(spectral, phi0, cfg, [block.operator],
                                       alpha=block.alpha,
                                       x_good=spectral.tau * gamma / 2.0)
    x = inst.solution_state()
    exact = complex(x.conj() @ hadamard.as_matrix(m_operator) @ x)
    inter = {key: report.intermediate[key]
             for key in ("x_good", "p0_bar", "p_lo", "k_weighted", "p0o0_bar",
                         "real_target", "gamma", "delta_prop", "d_prop",
                         "alpha")}
    inter.update({"tau": spectral.tau, "exact": exact, "kernel_mass": kernel_mass,
                  "error": abs(report.value - exact)})
    report.intermediate = inter
    return report


# --- Majorana / Jordan-Wigner ---------------------------------------------------

def majorana_string(index: int, n_modes: int) -> PauliString:
    """Jordan-Wigner Majorana operator as a Pauli string:
    gamma_{2p} = Z^p X I^(n-p-1), gamma_{2p+1} = Z^p Y I^(n-p-1)."""
    mode, parity = divmod(int(index), 2)
    if not 0 <= mode < n_modes:
        raise PreconditionError(f"mode {mode} out of range for {n_modes} modes")
    letter = "X" if parity == 0 else "Y"
    return PauliString("Z" * mode + letter + "I" * (n_modes - mode - 1))


def majorana_product(a_index, b_index, n_modes: int) -> tuple[complex, PauliString]:
    """gamma_a gamma_b as (unit-modulus phase, single Pauli string)."""
    sa = majorana_string(a_index, n_modes)
    sb = majorana_string(b_index, n_modes)
    k, string = multiply_strings(sa, sb)
    return 1j ** k, string


def annihilation_matrix(mode: int, n_modes: int) -> np.ndarray:
    """Dense a_p = (gamma_{2p} + i gamma_{2p+1}) / 2, for test oracles."""
    g_even = majorana_string(2 * mode, n_modes).matrix()
    g_odd = majorana_string(2 * mode + 1, n_modes).matrix()
    return 0.5 * (g_even + 1j * g_odd)


def exact_1rdm_entry(spectral: SpectralData, p: int, q: int,
                     n_modes: int) -> complex:
    psi0 = spectral.ground_state()
    ap = annihilation_matrix(p, n_modes)
    aq = annihilation_matrix(q, n_modes)
    return complex(psi0.conj() @ (ap.conj().T @ (aq @ psi0)))


def estimate_1rdm_entry(spectral: SpectralData, phi0, p: int, q: int,
                        cfg: EstimationConfig) -> EstimateReport:
    """D_pq = <psi0| a_p^dag a_q |psi0> = sum_k u_k <gamma_a gamma_b>_k over
    the four-Majorana expansion, with u_k = weight * phase / 4.

    The products are formed first, so a bad mode costs no shots.  Identity
    products (p = q) are exact; the others are the terms of the weighted
    stage of one :func:`estimators.estimate_ratio` call, k shots of each per
    group (``cfg.k`` is per product), their two-time laws built one at a
    time from one Psi (:func:`hadamard.oracle_tables`).
    """
    n_modes = int(round(math.log2(spectral.dim)))
    # D = (G1 - i G2 + i G3 + G4) / 4 over gamma products
    combos = [(1.0, 2 * p, 2 * q), (-1j, 2 * p + 1, 2 * q),
              (1j, 2 * p, 2 * q + 1), (1.0, 2 * p + 1, 2 * q + 1)]
    products, identity = [], 0.0
    for index, (weight, a_idx, b_idx) in enumerate(combos):
        phase, string = majorana_product(a_idx, b_idx, n_modes)
        if a_idx == b_idx:
            identity += weight / 4.0  # gamma_a^2 = identity, expectation exactly 1
        else:
            products.append(((weight * phase / 4.0, index), string))
    report = estimators.estimate_ratio(spectral, phi0, cfg,
                                       [string for _, string in products],
                                       terms=[t for t, _ in products])
    report.value += identity
    return report
