"""Hadamard-test circuit families: exact distributions and shot sampling.

Every sampler simulates the measurement distribution of the literal circuit
(pre-measurement state built register by register), never an approximation.
Vectorized ``draw_*`` helpers reproduce the same laws from the exact
expectation tables built here; the single-index targets evaluate the same
moment code, and the test suite pins them against the literal circuits.

Sign conventions: with W = I the outcome 0 maps to X = +1; with W = S
(phase gate diag(1, i)) the outcome 0 maps to Y = -1, so that
E[X + iY] equals the matrix element targeted by each circuit family.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import SpectralData, as_state, evolve, overlaps

UNITARY_TOL = 1e-10


class NotUnitaryError(ValueError):
    pass


class BlockEncodingError(ValueError):
    pass


@dataclass(frozen=True)
class Shot:
    """One Hadamard-test draw.

    ``z`` bundles one X run (W = I) and one Y run (W = S) at the same time
    parameters, so z lies in {+-1 +- i} for unitary circuits and in
    {0, +-alpha} + i{0, +-alpha} for the post-selected block-encoded circuit.
    ``branch`` records which W settings produced the components.
    """

    z: complex
    j: int | None = None
    j2: int | None = None
    branch: str = "IS"


@dataclass(frozen=True)
class BlockEncoding:
    """Unitary on m ancilla qubits + system whose top-left block is O/alpha."""

    unitary: np.ndarray
    alpha: float
    m: int
    operator: np.ndarray

    @property
    def system_dim(self) -> int:
        return self.operator.shape[0]


def as_matrix(op, dim: int | None = None) -> np.ndarray:
    """Dense complex matrix of an operator: anything with a ``matrix()``
    method (Pauli strings and operators) or an array-like."""
    mat = np.asarray(op.matrix() if hasattr(op, "matrix") else op, dtype=complex)
    if dim is not None and mat.shape != (dim, dim):
        raise ValueError(f"operator shape {mat.shape}, expected {(dim, dim)}")
    return mat


def require_unitary(mat: np.ndarray) -> np.ndarray:
    dev = np.linalg.norm(mat.conj().T @ mat - np.eye(mat.shape[0]), 2)
    if dev > UNITARY_TOL:
        raise NotUnitaryError(f"operator deviates from unitarity by {dev:.3e}")
    return mat


# --- exact moments: each formula once, over a vector of indices j (the tables
# take j = -d..d, the single-index targets the circuits are pinned to one j)

def _phases(eigenvalues: np.ndarray, times) -> np.ndarray:
    """Row r holds e^{-i t_r lambda_k}."""
    return np.exp(-1j * np.outer(times, eigenvalues))


def _one_time(spectral: SpectralData, weights: np.ndarray, js) -> np.ndarray:
    """sum_k w_k e^{-i j tau lambda_k} for each j."""
    return _phases(spectral.scaled_eigenvalues, js) @ weights


def _observable_weights(spectral: SpectralData, phi0, o_matrix) -> np.ndarray:
    """w_k = <phi0|O|k><k|phi0>, the weights of <phi0| O e^{-i j tau H} |phi0>."""
    phi0 = as_state(phi0, dim=spectral.dim)
    o_mat = as_matrix(o_matrix, spectral.dim)
    a = spectral.to_eigenbasis(phi0)
    b = spectral.eigenvectors.conj().T @ (o_mat.conj().T @ phi0)
    return b.conj() * a


def _two_time(spectral: SpectralData, phi0, o_matrix, left: np.ndarray,
              right: np.ndarray) -> np.ndarray:
    """M[r, c] = <phi0| L_r O R_c |phi0>; L_r, R_c given by their eigenbasis
    phase rows."""
    o_eig = eigenbasis_operator(spectral, o_matrix)
    a = spectral.to_eigenbasis(phi0)
    return (left * a.conj()[None, :]) @ o_eig @ (right * a[None, :]).T


def expectation_table_1d(spectral: SpectralData, phi0, d: int) -> np.ndarray:
    """table[j + d] = <phi0| e^{-i j tau H} |phi0>."""
    return _one_time(spectral, overlaps(phi0, spectral), np.arange(-d, d + 1))


def expectation_table_O(spectral: SpectralData, phi0, o_matrix, d: int) -> np.ndarray:
    """table[j + d] = <phi0| O e^{-i j tau H} |phi0>."""
    return _one_time(spectral, _observable_weights(spectral, phi0, o_matrix),
                     np.arange(-d, d + 1))


def expectation_table_2d(spectral: SpectralData, phi0, o_matrix, d: int) -> np.ndarray:
    """table[j + d, j' + d] = <phi0| e^{-ij tau H} O e^{-ij' tau H} |phi0>."""
    phases = _phases(spectral.scaled_eigenvalues, np.arange(-d, d + 1))
    return _two_time(spectral, phi0, o_matrix, phases, phases)


def block_norm_table(spectral: SpectralData, phi0, o_matrix, d: int) -> np.ndarray:
    """nsq[j' + d] = ||O e^{-i j' tau H} phi0||^2."""
    o_eig = eigenbasis_operator(spectral, o_matrix)
    a = spectral.to_eigenbasis(phi0)
    moved = _phases(spectral.scaled_eigenvalues, np.arange(-d, d + 1)) * a[None, :]
    return np.linalg.norm(moved @ o_eig.T, axis=1) ** 2


def exact_expectation_1d(spectral: SpectralData, phi0, j: int) -> complex:
    """<phi0| e^{-i j tau H} |phi0>."""
    return complex(_one_time(spectral, overlaps(phi0, spectral), [j])[0])


def exact_expectation_O(spectral: SpectralData, phi0, o_matrix, j: int) -> complex:
    """<phi0| O e^{-i j tau H} |phi0>."""
    return complex(_one_time(
        spectral, _observable_weights(spectral, phi0, o_matrix), [j])[0])


def exact_expectation_2d(spectral: SpectralData, phi0, o_matrix,
                         j: int, j2: int) -> complex:
    """<phi0| e^{-i j tau H} O e^{-i j2 tau H} |phi0>."""
    lam = spectral.scaled_eigenvalues
    return complex(_two_time(spectral, phi0, o_matrix, _phases(lam, [j]),
                             _phases(lam, [j2]))[0, 0])


def exact_expectation_block(spectral: SpectralData, phi0, o_matrix,
                            t1: float, t2: float) -> complex:
    """<phi0| e^{-i H t2} O e^{-i H t1} |phi0> for unnormalized times."""
    lam = spectral.eigenvalues
    return complex(_two_time(spectral, phi0, o_matrix, _phases(lam, [t2]),
                             _phases(lam, [t1]))[0, 0])


def eigenbasis_operator(spectral: SpectralData, o_matrix) -> np.ndarray:
    o_mat = as_matrix(o_matrix, spectral.dim)
    v = spectral.eigenvectors
    return v.conj().T @ o_mat @ v


# --- literal circuit distributions ------------------------------------------

def _one_ancilla_probs(phi0: np.ndarray, applied: np.ndarray, w: str):
    """Measurement law of the one-ancilla interference circuit.

    ``applied`` is U|phi0> for the circuit's controlled operator U.  Returns
    (p_outcome0, p_outcome1).
    """
    branch = applied * (1j if w == "S" else 1.0)
    p0 = 0.25 * float(np.linalg.norm(phi0 + branch) ** 2)
    p1 = 0.25 * float(np.linalg.norm(phi0 - branch) ** 2)
    return p0, p1


def outcome_distribution_1d(spectral, phi0, j: int):
    """{'X': (p_plus1, p_minus1), 'Y': (p_plus1, p_minus1)} from the circuit."""
    phi0 = as_state(phi0, dim=spectral.dim)
    applied = evolve(spectral, phi0, j * spectral.tau)
    return _xy_distribution(phi0, applied)


def outcome_distribution_O(spectral, phi0, o_matrix, j: int):
    phi0 = as_state(phi0, dim=spectral.dim)
    o_mat = require_unitary(as_matrix(o_matrix, spectral.dim))
    applied = o_mat @ evolve(spectral, phi0, j * spectral.tau)
    return _xy_distribution(phi0, applied)


def outcome_distribution_2d(spectral, phi0, o_matrix, j: int, j2: int):
    phi0 = as_state(phi0, dim=spectral.dim)
    o_mat = require_unitary(as_matrix(o_matrix, spectral.dim))
    tau = spectral.tau
    applied = evolve(spectral, o_mat @ evolve(spectral, phi0, j2 * tau), j * tau)
    return _xy_distribution(phi0, applied)


def _xy_distribution(phi0, applied):
    px0, px1 = _one_ancilla_probs(phi0, applied, "I")
    py0, py1 = _one_ancilla_probs(phi0, applied, "S")
    # W = I: outcome 0 -> X = +1.  W = S: outcome 0 -> Y = -1.
    return {"X": (px0, px1), "Y": (py1, py0)}


def _draw_pm1(p_plus: float, rng) -> int:
    return 1 if rng.random() < p_plus else -1


def _bundle(dist, rng, j=None, j2=None) -> Shot:
    x = _draw_pm1(dist["X"][0], rng)
    y = _draw_pm1(dist["Y"][0], rng)
    return Shot(z=complex(x, y), j=j, j2=j2)


def sample_1d(spectral, phi0, j: int, rng) -> Shot:
    return _bundle(outcome_distribution_1d(spectral, phi0, j), rng, j=j)


def sample_O(spectral, phi0, o_matrix, j: int, rng) -> Shot:
    return _bundle(outcome_distribution_O(spectral, phi0, o_matrix, j), rng, j=j)


def sample_2d(spectral, phi0, o_matrix, j: int, j2: int, rng) -> Shot:
    return _bundle(outcome_distribution_2d(spectral, phi0, o_matrix, j, j2),
                   rng, j=j, j2=j2)


# --- block encoding ----------------------------------------------------------

def embed_block(operator, alpha: float) -> BlockEncoding:
    """One-ancilla block encoding U = [[O/a, R], [R, -O/a]] with
    R = sqrt(I - O^2/a^2), built through the eigendecomposition of O."""
    o_mat = as_matrix(operator)
    if np.linalg.norm(o_mat - o_mat.conj().T) > 1e-12 * max(1.0, np.linalg.norm(o_mat)):
        raise BlockEncodingError("block-encoded observable must be Hermitian")
    evals, evecs = np.linalg.eigh(o_mat)
    norm = float(np.abs(evals).max())
    if norm > alpha + 1e-12:
        raise BlockEncodingError(f"||O|| = {norm:.6g} exceeds alpha = {alpha}")
    scaled = np.clip(evals / alpha, -1.0, 1.0)
    root = evecs @ np.diag(np.sqrt(1.0 - scaled ** 2)) @ evecs.conj().T
    top = o_mat / alpha
    unitary = np.block([[top, root], [root, -top]])
    dev = np.linalg.norm(unitary.conj().T @ unitary - np.eye(unitary.shape[0]), 2)
    if dev > UNITARY_TOL:
        raise BlockEncodingError(f"embedding is not unitary (deviation {dev:.3e})")
    return BlockEncoding(unitary=unitary, alpha=float(alpha), m=1, operator=o_mat)


def _system_propagator(spectral: SpectralData, t: float) -> np.ndarray:
    v = spectral.eigenvectors
    return (v * np.exp(-1j * t * spectral.eigenvalues)) @ v.conj().T


def block_circuit_distribution(spectral, phi0, block: BlockEncoding,
                               t1: float, t2: float, w: str):
    """Nine-step post-selected Hadamard test, simulated literally.

    Returns (p_fail, p_value_plus, p_value_minus) where the value alphabet is
    {0, +alpha, -alpha}: with W = I outcome 0 carries +alpha, with W = S
    outcome 1 carries +alpha.
    """
    phi0 = as_state(phi0, dim=block.system_dim)
    dim = block.system_dim
    anc_dim = 2 ** block.m
    zero_m = np.zeros(anc_dim)
    zero_m[0] = 1.0
    start = np.kron(zero_m, phi0)
    b0 = start / math.sqrt(2.0)
    b1 = start / math.sqrt(2.0)
    prop1 = _system_propagator(spectral, t1)
    b1 = (np.kron(np.eye(anc_dim), prop1)) @ b1
    b1 = block.unitary @ b1
    # measure the encoding ancillas; keep the 0^m block
    keep0, keep1 = b0[:dim], b1[:dim]
    p_succ = float(np.linalg.norm(keep0) ** 2 + np.linalg.norm(keep1) ** 2)
    if p_succ <= 0.0:
        return 1.0, 0.0, 0.0
    prop2 = _system_propagator(spectral, t2)
    keep1 = prop2 @ keep1
    if w == "S":
        keep1 = 1j * keep1
    out0 = 0.5 * float(np.linalg.norm(keep0 + keep1) ** 2)
    out1 = 0.5 * float(np.linalg.norm(keep0 - keep1) ** 2)
    if w == "S":
        return 1.0 - p_succ, out1, out0
    return 1.0 - p_succ, out0, out1


def block_success_prob(spectral, phi0, block: BlockEncoding, t1: float) -> float:
    """p_succ = (1 + alpha^-2 <phi0| e^{iHt1} O^2 e^{-iHt1} |phi0>) / 2."""
    moved = evolve(spectral, phi0, t1)
    nsq = float(np.linalg.norm(block.operator @ moved) ** 2)
    return 0.5 * (1.0 + nsq / block.alpha ** 2)


def _draw_three(p_plus: float, p_minus: float, value: float, rng) -> float:
    u = rng.random()
    if u < p_plus:
        return value
    if u < p_plus + p_minus:
        return -value
    return 0.0


def sample_block(spectral, phi0, block: BlockEncoding, t1: float, t2: float,
                 w: str, rng) -> Shot:
    """Single-W draw from the post-selected circuit; returns the X component
    (w='I') or i times the Y component (w='S')."""
    p_fail, p_plus, p_minus = block_circuit_distribution(
        spectral, phi0, block, t1, t2, w)
    val = _draw_three(p_plus, p_minus, block.alpha, rng)
    z = complex(val, 0.0) if w == "I" else complex(0.0, val)
    return Shot(z=z, branch=w)


def sample_block_pair(spectral, phi0, block: BlockEncoding, t1: float,
                      t2: float, rng) -> Shot:
    """X run and Y run bundled at the same (t1, t2)."""
    x = sample_block(spectral, phi0, block, t1, t2, "I", rng).z.real
    y = sample_block(spectral, phi0, block, t1, t2, "S", rng).z.imag
    return Shot(z=complex(x, y))


# --- generalized (variance-reduced) block test -------------------------------

def generalized_circuit_distribution(spectral, phi0, block: BlockEncoding,
                                     t1: float, t2: float, a: float, w: str):
    """Block test with the first Hadamard replaced by G(a, b, 0), b=sqrt(1-a^2),
    and the closing gate fixed to G(1/sqrt2, 1/sqrt2, 0).

    Value alphabet is {0, +-alpha/(2ab)}; returns (p_fail, p_plus, p_minus)
    where with W = I outcome (1, 0^m) carries the + value and with W = S
    outcome (0, 0^m) does, so that E[X] = Re and E[Y] = Im of the target.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"gate parameter a must be in (0, 1), got {a}")
    b = math.sqrt(1.0 - a * a)
    phi0 = as_state(phi0, dim=block.system_dim)
    dim = block.system_dim
    anc_dim = 2 ** block.m
    zero_m = np.zeros(anc_dim)
    zero_m[0] = 1.0
    start = np.kron(zero_m, phi0)
    b0 = a * start
    b1 = -b * start
    b1 = (np.kron(np.eye(anc_dim), _system_propagator(spectral, t1))) @ b1
    b1 = block.unitary @ b1
    keep0, keep1 = b0[:dim], b1[:dim]
    keep1 = _system_propagator(spectral, t2) @ keep1
    if w == "S":
        keep1 = 1j * keep1
    out0 = 0.5 * float(np.linalg.norm(keep0 + keep1) ** 2)
    out1 = 0.5 * float(np.linalg.norm(-keep0 + keep1) ** 2)
    p_fail = max(0.0, 1.0 - out0 - out1)
    if w == "S":
        return p_fail, out0, out1
    return p_fail, out1, out0


def sample_generalized(spectral, phi0, block: BlockEncoding, t1: float,
                       t2: float, a: float, rng) -> Shot:
    """Bundled X and Y draws from the generalized-gate circuit."""
    b = math.sqrt(1.0 - a * a)
    value = block.alpha / (2.0 * a * b)
    _, pxp, pxm = generalized_circuit_distribution(
        spectral, phi0, block, t1, t2, a, "I")
    _, pyp, pym = generalized_circuit_distribution(
        spectral, phi0, block, t1, t2, a, "S")
    x = _draw_three(pxp, pxm, value, rng)
    y = _draw_three(pyp, pym, value, rng)
    return Shot(z=complex(x, y))


def generalized_second_moment(nsq: float, alpha: float, a: float) -> float:
    """Closed-form E[X^2] = alpha^2/(4 a^2 b^2) * (a^2 + b^2 * nsq / alpha^2)
    where nsq = ||O e^{-iHt1} phi0||^2."""
    bsq = 1.0 - a * a
    return alpha ** 2 / (4.0 * a * a * bsq) * (a * a + bsq * nsq / alpha ** 2)


def generalized_variance(e_real: float, nsq: float, alpha: float, a: float) -> float:
    return generalized_second_moment(nsq, alpha, a) - e_real ** 2


# --- vectorized fast paths (tables of exact expectations) --------------------

def draw_xy_pm1(expectations: np.ndarray, rng) -> np.ndarray:
    """Vector of z = X + iY draws given exact target expectations."""
    e = np.asarray(expectations, dtype=complex)
    px = np.clip(0.5 * (1.0 + e.real), 0.0, 1.0)
    py = np.clip(0.5 * (1.0 + e.imag), 0.0, 1.0)
    x = np.where(rng.random(e.shape) < px, 1.0, -1.0)
    y = np.where(rng.random(e.shape) < py, 1.0, -1.0)
    return x + 1j * y


def draw_block_xy(expectations: np.ndarray, nsq: np.ndarray, alpha: float,
                  rng) -> np.ndarray:
    """Vector of z = X + iY draws for the post-selected block circuit."""
    e = np.asarray(expectations, dtype=complex)
    nsq = np.asarray(nsq, dtype=float)
    p_succ = 0.5 * (1.0 + nsq / alpha ** 2)
    pxp = np.clip(0.5 * (p_succ + e.real / alpha), 0.0, 1.0)
    pxm = np.clip(0.5 * (p_succ - e.real / alpha), 0.0, 1.0)
    pyp = np.clip(0.5 * (p_succ + e.imag / alpha), 0.0, 1.0)
    pym = np.clip(0.5 * (p_succ - e.imag / alpha), 0.0, 1.0)
    ux = rng.random(e.shape)
    uy = rng.random(e.shape)
    x = np.where(ux < pxp, alpha, np.where(ux < pxp + pxm, -alpha, 0.0))
    y = np.where(uy < pyp, alpha, np.where(uy < pyp + pym, -alpha, 0.0))
    return x + 1j * y
