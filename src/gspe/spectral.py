"""Exact diagonalization oracle, spectral normalization and CDF helpers.

All estimation machinery works on the rescaled spectrum ``tau * lambda_k``
which lies in ``[-pi/3, pi/3]`` by construction; ``tau`` is computed from the
exact spectral norm.  The gap is recorded on the *unnormalized* spectrum.

Every eigensolve goes through :func:`hermitian_eigh`: a real symmetric
matrix (a Pauli sum whose terms each hold an even number of Y, such as the
TFIMs, or the gap-amplified linear-system Hamiltonian) is solved in real
arithmetic.  The eigenvector matrix V is always complex128, and
real-valued when H is real, so the tables and the evolution have one code
path.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliOperator, check_dense_size


class DegenerateGroundSpaceError(ValueError):
    """Raised when the two lowest eigenvalues are closer than the tolerance.

    A unique ground state is required by every good-point construction, so a
    degenerate ground space is rejected at diagonalization time instead of
    being silently propagated.
    """


class DimensionMismatchError(ValueError):
    pass


@dataclass(frozen=True)
class SpectralData:
    """Exact eigensystem of a Hermitian operator plus its normalization.

    eigenvalues : ascending, unnormalized
    eigenvectors : unitary complex128 matrix, k-th column is the k-th
        eigenvector; real-valued when H is real (see :func:`hermitian_eigh`)
    gap : lambda_1 - lambda_0 (unnormalized)
    tau : scale factor with tau * max|lambda_k| = pi/3
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float
    tau: float

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def scaled_eigenvalues(self) -> np.ndarray:
        return self.tau * self.eigenvalues

    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0].copy()

    def to_eigenbasis(self, vec: np.ndarray) -> np.ndarray:
        """V^H vec, formed as conj(vec^H V): no conjugate copy of V."""
        vec = as_state(vec, dim=self.dim)
        return (vec.conj() @ self.eigenvectors).conj()


HERMITIAN_TOL = 1e-12  # ||A - A^H||_F relative to max(1, ||A||_F)


def hermitian_eigh(mat: np.ndarray, *, vectors: bool = True,
                   error: type[Exception] = ValueError,
                   message: str = "operator is not Hermitian"):
    """Ascending eigenvalues of the Hermitian ``mat`` and, with ``vectors``,
    its unitary eigenvector matrix V as complex128; ``error(message)`` when
    ||mat - mat^H||_F exceeds HERMITIAN_TOL relative to max(1, ||mat||_F).

    Every eigensolve of the package goes through here.  A matrix whose
    imaginary part is exactly zero is real symmetric and is solved in real
    arithmetic, several times faster than the complex solve at dim 1024
    and with no complex LAPACK workspace; V is then real-valued, cast to
    complex128, so callers keep one code path.  Any other matrix takes the
    complex solve.
    """
    if not mat.imag.any():
        mat = mat.real
    if np.linalg.norm(mat - mat.conj().T) > HERMITIAN_TOL * max(1.0, np.linalg.norm(mat)):
        raise error(message)
    if not vectors:
        return np.linalg.eigvalsh(mat)
    eigenvalues, eigenvectors = np.linalg.eigh(mat)
    return eigenvalues, eigenvectors.astype(complex, copy=False)


def diagonalize(H, degeneracy_tolerance: float = 1e-8, *,
                require_unique_ground_state: bool = True) -> SpectralData:
    """Dense eigensolve (:func:`hermitian_eigh`) with spectral normalization.

    Fails on a degenerate ground space unless
    ``require_unique_ground_state=False`` (the linear-system pipeline relies
    on that escape hatch; see applications).
    """
    if isinstance(H, PauliOperator):
        mat = H.matrix()
    else:
        mat = np.asarray(H, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    n_qubits = int(round(math.log2(mat.shape[0])))
    check_dense_size(n_qubits)
    eigenvalues, eigenvectors = hermitian_eigh(mat)
    gap = float(eigenvalues[1] - eigenvalues[0]) if eigenvalues.size > 1 else math.inf
    if require_unique_ground_state and gap <= degeneracy_tolerance:
        raise DegenerateGroundSpaceError(
            f"ground space is degenerate: lambda_1 - lambda_0 = {gap:.3e} "
            f"<= tolerance {degeneracy_tolerance:.3e}")
    norm = float(np.abs(eigenvalues).max())
    if norm == 0.0:
        raise ValueError("zero operator has no spectral normalization")
    tau = (math.pi / 3.0) / norm
    return SpectralData(eigenvalues=eigenvalues, eigenvectors=eigenvectors,
                        gap=gap, tau=tau)


def as_state(vec, *, dim: int | None = None) -> np.ndarray:
    """Validate a state vector: complex, unit norm within 1e-10."""
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    if dim is not None and vec.size != dim:
        raise DimensionMismatchError(f"state has dim {vec.size}, expected {dim}")
    norm = np.linalg.norm(vec)
    if not abs(norm - 1.0) <= 1e-10:  # also rejects a NaN norm
        raise ValueError(f"state norm {norm} deviates from 1 by more than 1e-10")
    return vec


def normalized(vec) -> np.ndarray:
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    return vec / np.linalg.norm(vec)


def overlaps(phi0, spectral: SpectralData) -> np.ndarray:
    """Eigenbasis weights ``p_k = |<phi0|psi_k>|^2``; they sum to one."""
    amps = spectral.to_eigenbasis(phi0)
    return np.abs(amps) ** 2


def evolve(spectral: SpectralData, phi, t: float) -> np.ndarray:
    """Exact time evolution ``exp(-i t H) phi`` through the eigensystem."""
    phases = np.exp(-1j * t * spectral.eigenvalues)
    return spectral.eigenvectors @ (phases * spectral.to_eigenbasis(phi))


def mixed_with_noise(target, noise, overlap: float) -> np.ndarray:
    """State with squared overlap ``overlap`` on ``target`` and the rest on the
    component of ``noise`` orthogonal to it."""
    target = normalized(target)
    noise = np.asarray(noise, dtype=complex).reshape(-1)
    noise = noise - (target.conj() @ noise) * target
    nn = np.linalg.norm(noise)
    if nn < 1e-14:
        raise ValueError("noise vector is parallel to the target state")
    return math.sqrt(overlap) * target + math.sqrt(1.0 - overlap) * noise / nn


# --- exact CDF helpers (ground truth for tests and CDF traces) -------------

def exact_cdf(spectral: SpectralData, weights, x) -> np.ndarray:
    """C(x) = sum_{k: tau*lambda_k <= x} w_k on the rescaled axis."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    pos = spectral.scaled_eigenvalues
    w = np.asarray(weights, dtype=float)
    out = np.array([w[pos <= xi].sum() for xi in x])
    return out[0] if scalar else out


def weighted_cdf_commuting(spectral: SpectralData, phi0, o_diag, x):
    """O-weighted CDF for [H, O] = 0: sum_{tau*lambda_k <= x} p_k O_k."""
    p = overlaps(phi0, spectral)
    return exact_cdf(spectral, p * np.asarray(o_diag, dtype=float), x)


def weighted_cdf_2d(spectral: SpectralData, phi0, o_matrix, x, y) -> np.ndarray:
    """Two-variable O-weighted CDF
    ``C_{O,2}(x, y) = sum_{tau*l_k <= x, tau*l_k' <= y} c_k^* c_k' O_{k,k'}``.

    Vectorized over grids: returns an ``(len(x), len(y))`` complex array.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    amps = spectral.to_eigenbasis(phi0)
    o_eig = spectral.eigenvectors.conj().T @ np.asarray(o_matrix, dtype=complex) \
        @ spectral.eigenvectors
    pos = spectral.scaled_eigenvalues
    mask_x = (pos[None, :] <= x[:, None]).astype(float)   # (nx, K)
    mask_y = (pos[None, :] <= y[:, None]).astype(float)   # (ny, K)
    weighted = (amps.conj()[:, None] * o_eig) * amps[None, :]
    return (mask_x @ weighted) @ mask_y.T
