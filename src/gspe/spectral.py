"""Exact diagonalization oracle, spectral normalization and CDF helpers.

All estimation machinery works on the rescaled spectrum ``tau * lambda_k``
which lies in ``[-pi/3, pi/3]`` by construction; ``tau`` is computed from the
exact spectral norm.  The gap is recorded on the *unnormalized* spectrum.

Every eigensolve goes through :func:`hermitian_eigh`: a real symmetric
matrix (a Pauli sum whose terms each hold an even number of Y, such as the
TFIMs, or the gap-amplified linear-system Hamiltonian) is solved in real
arithmetic and keeps a float64 eigenvector matrix V; any other H keeps a
complex128 V.  Only :meth:`SpectralData.to_eigenbasis` (V^H x) and
:meth:`SpectralData.from_eigenbasis` (V c) depend on that dtype: on a real
V they form a complex x or c as two real products, never a complex copy of
V, so every caller has one code path.  V^H A V for an operator A
(:meth:`SpectralData.operator_in_eigenbasis`) applies A's own action to V
and goes through the first.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

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
    eigenvectors : V, unitary, k-th column is the k-th eigenvector; float64
        when H is real, complex128 otherwise (see :func:`hermitian_eigh`).
        Read it through :meth:`to_eigenbasis` and :meth:`from_eigenbasis`,
        the only readers that depend on its dtype, or
        :meth:`operator_in_eigenbasis`.
    gap : lambda_1 - lambda_0 (unnormalized)
    tau : scale factor with tau * max|lambda_k| = pi/3

    An instance also keeps its last estimate's shot laws (32 B per cell for
    a block law; :func:`hadamard.oracle_tables`), keyed by the content of
    phi0 and O, the degrees, the table kind and alpha, so a hit builds no
    table or law and pays only for the key.  The memo holds one estimate's
    laws, is left out of eq, hash and repr, and is freed with the instance;
    :func:`diagonalize` returns read-only eigenvalues and eigenvectors, so
    it cannot go stale through an in-place write.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    gap: float
    tau: float
    _table_memo: dict = field(default_factory=dict, init=False, repr=False,
                              compare=False)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def scaled_eigenvalues(self) -> np.ndarray:
        return self.tau * self.eigenvalues

    def ground_state(self) -> np.ndarray:
        return self.eigenvectors[:, 0].astype(complex)

    def to_eigenbasis(self, x) -> np.ndarray:
        """V^H x for a vector or a block of columns x.

        A complex V forms it as (x^H V)^H, with no conjugate copy of V; a
        real V as V^T x, by :func:`_real_product`."""
        x = self._columns(x)
        v = self.eigenvectors
        if np.iscomplexobj(v):
            return (x.conj().T @ v).conj().T
        return _real_product(v.T, x)

    def from_eigenbasis(self, c) -> np.ndarray:
        """V c for a vector or a block of columns c of eigenbasis
        coefficients; a real V forms it by :func:`_real_product`."""
        c = self._columns(c)
        v = self.eigenvectors
        return v @ c if np.iscomplexobj(v) else _real_product(v, c)

    def operator_in_eigenbasis(self, apply) -> np.ndarray:
        """V^H A V for the operator A whose action on a block of state
        columns is ``apply`` (such as ``Observable.apply``): A acts on the
        columns of V itself, so no identity product V I is formed, and the
        result goes through :meth:`to_eigenbasis`."""
        return self.to_eigenbasis(apply(self.eigenvectors))

    def _columns(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[:1] != (self.dim,):
            raise DimensionMismatchError(f"operand has shape {x.shape}, "
                                         f"expected {self.dim} rows")
        return x


def _real_product(real: np.ndarray, x: np.ndarray) -> np.ndarray:
    """real @ x for a real matrix: a complex x as one product on its real
    part and one on its imaginary part, each made contiguous for BLAS, so
    ``real`` is never cast to complex (a mixed product would cast all of
    it) and the flops are half those of the complex product."""
    if not np.iscomplexobj(x):
        return real @ x
    out = np.empty(real.shape[:1] + x.shape[1:], dtype=complex)
    out.real = real @ np.ascontiguousarray(x.real)
    out.imag = real @ np.ascontiguousarray(x.imag)
    return out


HERMITIAN_TOL = 1e-12  # ||A - A^H||_F relative to max(1, ||A||_F)


def within_hermitian_tol(deviation: float, norm: float) -> bool:
    """The package's one Hermiticity rule for a matrix A with
    ``deviation`` = ||A - A^H||_F and ``norm`` = ||A||_F: False exactly when
    the deviation exceeds HERMITIAN_TOL relative to max(1, norm)."""
    return not deviation > HERMITIAN_TOL * max(1.0, norm)


def hermitian_eigh(mat: np.ndarray, *, vectors: bool = True,
                   error: type[Exception] = ValueError,
                   message: str = "operator is not Hermitian"):
    """Ascending eigenvalues of the Hermitian ``mat`` and, with ``vectors``,
    its unitary eigenvector matrix V; ``error(message)`` when ``mat`` fails
    :func:`within_hermitian_tol`.

    Every eigensolve of the package goes through here.  A matrix whose
    imaginary part is exactly zero is real symmetric (:func:`_real_if_real`)
    and is solved in real arithmetic, several times faster than the complex
    solve at dim 1024 and with no complex LAPACK workspace; V is then
    float64, half the memory of complex128.  Any other matrix takes the
    complex solve and gives a complex128 V.
    """
    mat = _real_if_real(mat)
    if not within_hermitian_tol(np.linalg.norm(mat - mat.conj().T),
                                np.linalg.norm(mat)):
        raise error(message)
    if not vectors:
        return np.linalg.eigvalsh(mat)
    return np.linalg.eigh(mat)


def _real_if_real(mat: np.ndarray) -> np.ndarray:
    """A contiguous float64 copy of ``mat`` when it is complex with an
    imaginary part that is exactly zero; ``mat`` itself otherwise."""
    if np.iscomplexobj(mat) and not mat.imag.any():
        return np.ascontiguousarray(mat.real)
    return mat


def diagonalize(H, degeneracy_tolerance: float = 1e-8, *,
                require_unique_ground_state: bool = True) -> SpectralData:
    """Dense eigensolve (:func:`hermitian_eigh`) with spectral normalization.

    Fails on a degenerate ground space unless
    ``require_unique_ground_state=False`` (the linear-system pipeline relies
    on that escape hatch; see applications).  A real H is handed to the
    solver as a float64 matrix and its complex dense matrix is dropped
    first, so the two are never held beside the solve.  The eigenvalues and
    eigenvectors come back read-only.
    """
    if isinstance(H, PauliOperator):
        mat = H.matrix()
    else:
        mat = np.asarray(H, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got {mat.shape}")
    n_qubits = int(round(math.log2(mat.shape[0])))
    check_dense_size(n_qubits)
    mat = _real_if_real(mat)
    eigenvalues, eigenvectors = hermitian_eigh(mat)
    for array in (eigenvalues, eigenvectors):
        array.flags.writeable = False
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
    amps = spectral.to_eigenbasis(as_state(phi0, dim=spectral.dim))
    return np.abs(amps) ** 2


def evolve(spectral: SpectralData, phi, t: float) -> np.ndarray:
    """Exact time evolution ``exp(-i t H) phi`` through the eigensystem."""
    phases = np.exp(-1j * t * spectral.eigenvalues)
    amps = spectral.to_eigenbasis(as_state(phi, dim=spectral.dim))
    return spectral.from_eigenbasis(phases * amps)


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
    """C(x) = sum_{k: tau*lambda_k <= x} w_k on the rescaled axis: the
    cumulative sum of w read at the count of ascending scaled eigenvalues
    at or below each x."""
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    cumulative = np.concatenate(([0.0], np.cumsum(np.asarray(weights, dtype=float))))
    out = cumulative[np.searchsorted(spectral.scaled_eigenvalues, x, side="right")]
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
    amps = spectral.to_eigenbasis(as_state(phi0, dim=spectral.dim))
    o_mat = np.asarray(o_matrix, dtype=complex)
    o_eig = spectral.operator_in_eigenbasis(lambda v: o_mat @ v)
    pos = spectral.scaled_eigenvalues
    mask_x = (pos[None, :] <= x[:, None]).astype(float)   # (nx, K)
    mask_y = (pos[None, :] <= y[:, None]).astype(float)   # (ny, K)
    weighted = (amps.conj()[:, None] * o_eig) * amps[None, :]
    return (mask_x @ weighted) @ mask_y.T
