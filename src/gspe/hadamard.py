"""Hadamard-test circuit families, each written once as its law.

The literal circuits (``outcome_distribution_*``, ``block_circuit_distribution``,
``generalized_circuit_distribution``) build the pre-measurement state
register by register and return its exact measurement distribution.  The
exact-moment tables built here give the same laws for every time index at
once, :func:`outcome_law` turns a table into per-cell outcome thresholds, and
the one vectorized draw, :func:`draw_block_xy`, draws shots from them; the
single-index targets evaluate the same moment code, and the test suite pins
tables and draws against the literal circuits.

Estimates get their laws from :func:`oracle_tables`, the one place a table
becomes a law; the instance keeps its last estimate's laws (a block law,
32 B per cell), keyed by content, degrees, kind and alpha, so a hit pays
only for the key.

Sign conventions: with W = I the outcome 0 maps to X = +1; with W = S
(phase gate diag(1, i)) the outcome 0 maps to Y = -1, so that
E[X + iY] equals the matrix element targeted by each circuit family.
"""
from __future__ import annotations

import functools
import hashlib
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .spectral import (DimensionMismatchError, SpectralData, as_state, evolve,
                       hermitian_eigh, overlaps, within_hermitian_tol)

UNITARY_TOL = 1e-10


class NotUnitaryError(ValueError):
    pass


class BlockEncodingError(ValueError):
    pass


@dataclass(frozen=True)
class BlockEncoding:
    """Hermitian O and its normalization alpha >= ||O||_2: the unitary on one
    ancilla qubit + system whose top-left block is O/alpha.

    The block circuit's shot law reads only O and alpha; ``unitary`` is
    formed on first read, for the literal circuit simulations.
    """

    operator: np.ndarray
    alpha: float

    @property
    def system_dim(self) -> int:
        return self.operator.shape[0]

    @functools.cached_property
    def unitary(self) -> np.ndarray:
        """U = [[O/a, R], [R, -O/a]] with R = sqrt(I - O^2/a^2), built
        through the eigendecomposition of O."""
        evals, evecs = hermitian_eigh(self.operator)
        scaled = np.clip(evals / self.alpha, -1.0, 1.0)
        root = evecs @ np.diag(np.sqrt(1.0 - scaled ** 2)) @ evecs.conj().T
        top = self.operator / self.alpha
        return np.block([[top, root], [root, -top]])


def as_matrix(op, dim: int | None = None) -> np.ndarray:
    """Dense complex matrix of an operator: an :class:`Observable`, anything
    with a ``matrix()`` method (Pauli strings and operators) or an array-like."""
    if isinstance(op, Observable):
        mat = op.matrix
    else:
        mat = np.asarray(op.matrix() if hasattr(op, "matrix") else op, dtype=complex)
    if dim is not None and mat.shape != (dim, dim):
        raise DimensionMismatchError(f"operator shape {mat.shape}, expected {(dim, dim)}")
    return mat


@dataclass(frozen=True, eq=False)
class Observable:
    """An operator matrix, with its signed-permutation form when it has one.

    A square matrix with exactly one nonzero in every row and every column
    (every Pauli string and Majorana product) is a signed permutation: row r
    holds ``values[r]`` at column ``columns[r]`` and nothing else.  Then
    U^H U is diagonal and O Psi is a row gather and scale; every other matrix
    keeps the dense product.  :func:`observable` reads the form off the
    nonzero pattern.
    """

    matrix: np.ndarray
    columns: np.ndarray | None = None
    values: np.ndarray | None = None

    def apply(self, states: np.ndarray) -> np.ndarray:
        """O @ states for a block of state columns, real or complex."""
        if self.columns is None:
            return self.matrix @ states
        moved = states[self.columns].astype(np.result_type(states, self.values),
                                            copy=False)
        moved *= self.values[:, None]
        return moved


def observable(op, dim: int | None = None) -> Observable:
    """``op`` (see :func:`as_matrix`) as an :class:`Observable`, its
    signed-permutation form found once; ``dim`` checks its shape."""
    mat = as_matrix(op, dim)
    if isinstance(op, Observable):
        return op
    if mat.ndim == 2 and mat.shape[0] == mat.shape[1]:
        nonzero = mat != 0
        if (np.count_nonzero(nonzero, axis=1) == 1).all():
            columns = nonzero.argmax(axis=1)
            if (np.bincount(columns, minlength=mat.shape[1]) == 1).all():
                return Observable(mat, columns, mat[np.arange(mat.shape[0]), columns])
    return Observable(mat)


def _unitarity_deviation(obs: Observable) -> float:
    """||U^H U - I||_2 where it exceeds UNITARY_TOL; at or below it, possibly
    an upper bound instead.

    For a signed permutation U^H U is diagonal, holding |m|^2 for the one
    nonzero m of each column, so the norm is max | |m|^2 - 1 |.  Otherwise
    U^H U comes from :func:`two_time`, which holds no conjugate copy of U,
    and the Frobenius norm of the Gram deviation G, an O(dim^2) upper bound
    on ||G||_2 read off one vdot with no temporary, settles every unitary input;
    only a bound above the tolerance pays for the exact spectral norm,
    max |eigvalsh(G)|, as G is Hermitian.
    """
    if obs.columns is not None:
        values = obs.values
        return float(np.abs(values.real ** 2 + values.imag ** 2 - 1.0).max())
    mat = obs.matrix
    gram = two_time(mat, mat)
    gram[np.diag_indices_from(gram)] -= 1.0
    bound = math.sqrt(np.vdot(gram, gram).real)
    if bound <= UNITARY_TOL:
        return bound
    return float(np.abs(hermitian_eigh(gram, vectors=False)).max())


def require_unitary(op):
    """``op`` itself (an :class:`Observable` or anything :func:`as_matrix`
    takes) if its matrix is square and unitary; NotUnitaryError otherwise."""
    obs = observable(op)
    shape = obs.matrix.shape
    if len(shape) != 2 or shape[0] != shape[1]:
        raise NotUnitaryError(f"operator of shape {shape} is not square")
    dev = _unitarity_deviation(obs)
    if dev > UNITARY_TOL:
        raise NotUnitaryError(f"operator deviates from unitarity by {dev:.3e}")
    return op


def hermitian_sum(observables, weights) -> bool:
    """Whether M = sum_k weights[k] observables[k] (a list of
    :class:`Observable`) passes :func:`spectral.within_hermitian_tol`,
    decided without forming M where it can be.

    Signed permutations sharing one column map c sum to the signed
    permutation of values v = sum_k w_k v_k, and M^H has row r's one entry
    conj(v[s]) at column s = c^-1(r).  So row r of M - M^H holds
    v[r] - conj(v[s]) where c(r) = s, else v[r] and -conj(v[s]) apart, and
    ||M - M^H||_F comes from v, c and c^-1 in O(dim).  One dense observable
    is checked as w_0 O_0 itself; any other sum is reported not Hermitian.
    """
    first = observables[0]
    if first.columns is not None and all(
            obs.columns is not None and np.array_equal(obs.columns, first.columns)
            for obs in observables[1:]):
        columns = first.columns
        values = sum(w * obs.values for w, obs in zip(weights, observables))
        inverse = np.empty_like(columns)
        inverse[columns] = np.arange(columns.size)
        mirror = values.take(inverse).conj()
        rows = np.where(columns == inverse, np.abs(values - mirror) ** 2,
                        np.abs(values) ** 2 + np.abs(mirror) ** 2)
        return within_hermitian_tol(math.sqrt(rows.sum()), np.linalg.norm(values))
    if len(observables) == 1:
        mat = first.matrix if weights[0] == 1 else weights[0] * first.matrix
        return within_hermitian_tol(np.linalg.norm(mat - mat.conj().T),
                                    np.linalg.norm(mat))
    return False


# --- exact moments: each formula once, over a vector of indices j (the tables
# take j = -d..d, the single-index targets the circuits are pinned to one j)

def _phases(eigenvalues: np.ndarray, times, out=None) -> np.ndarray:
    """Row r holds e^{-i t_r lambda_k}."""
    return np.exp(-1j * np.outer(times, eigenvalues), out=out)


def phase_block(spectral: SpectralData, d: int) -> np.ndarray:
    """Row j + d holds e^{-i j tau lambda_k} for j = -d..d.

    Rows j = 0..d are evaluated and row -j is the conjugate of row j, the
    same bits as evaluating it (sin is odd), for half the exponentials.
    Every table up to degree d reads its middle rows, so
    :func:`oracle_tables` builds one block, at the largest degree of the
    estimate, and passes it to each table as ``phases``; the tables come out
    bit-identical to stand-alone ones.
    """
    block = np.empty((2 * d + 1, spectral.dim), dtype=complex)
    _phases(spectral.scaled_eigenvalues, np.arange(d + 1), out=block[d:])
    np.conjugate(block[:d:-1], out=block[:d])
    return block


def _phase_rows(spectral: SpectralData, d: int, phases) -> np.ndarray:
    """Rows j = -d..d of ``phases`` (a :func:`phase_block` of degree at
    least d), or a fresh block when ``phases`` is None."""
    if phases is None:
        return phase_block(spectral, d)
    mid = phases.shape[0] // 2
    if not 0 <= d <= mid:
        raise ValueError(f"phase block of degree {mid} cannot serve degree {d}")
    return phases[mid - d:mid + d + 1]


def _observable_weights(spectral: SpectralData, phi0, o_matrix) -> np.ndarray:
    """w_k = <phi0|O|k><k|phi0>, the weights of <phi0| O e^{-i j tau H} |phi0>.

    <phi0|O|k> is the conjugate of entry k of V^H O^H phi0, and O^H phi0 is
    conj(phi0^H O), so O is never conjugated."""
    phi0 = as_state(phi0, dim=spectral.dim)
    o_mat = as_matrix(o_matrix, spectral.dim)
    a = spectral.to_eigenbasis(phi0)
    return spectral.to_eigenbasis((phi0.conj() @ o_mat).conj()).conj() * a


def _evolved_states(spectral: SpectralData, phi0, phases: np.ndarray) -> np.ndarray:
    """Column c holds e^{-i t_c H} phi0 for the phase rows e^{-i t_c lambda_k}."""
    a = spectral.to_eigenbasis(as_state(phi0, dim=spectral.dim))
    return spectral.from_eigenbasis((phases * a[None, :]).T)


TWO_TIME_ROWS = 512  # bras conjugated at a time: 8 MB of them at dim 1024


def two_time(bras: np.ndarray, moved: np.ndarray) -> np.ndarray:
    """M[r, c] = <bra_r| O |ket_c> from the bra columns and the columns
    O ket_c; with bra_r = e^{i s_r H} phi0 and ket_c = e^{-i t_c H} phi0 this
    is <phi0| e^{-i s_r H} O e^{-i t_c H} |phi0>.  Rows come TWO_TIME_ROWS at
    a time, so no conjugate copy of all the bras is held."""
    out = np.empty((bras.shape[1], moved.shape[1]), dtype=complex)
    for lo in range(0, bras.shape[1], TWO_TIME_ROWS):
        rows = slice(lo, lo + TWO_TIME_ROWS)
        np.matmul(bras[:, rows].conj().T, moved, out=out[rows])
    return out


def table_states(spectral: SpectralData, phi0, d: int, *, phases=None) -> np.ndarray:
    """Psi: column j + d holds psi_j = e^{-i j tau H} phi0 for j = -d..d."""
    return _evolved_states(spectral, phi0, _phase_rows(spectral, d, phases))


def expectation_table_1d(spectral: SpectralData, phi0, d: int, *,
                         phases=None) -> np.ndarray:
    """table[j + d] = <phi0| e^{-i j tau H} |phi0>.

    An einsum, not ``phase_rows @ weights``: it calls no BLAS, and a
    threaded BLAS can take milliseconds to start on a product this small,
    then keep its worker thread spinning through the pool that follows."""
    return np.einsum("rk,k->r", _phase_rows(spectral, d, phases),
                     overlaps(phi0, spectral))


def expectation_table_O(spectral: SpectralData, phi0, o_matrix, d: int, *,
                        phases=None) -> np.ndarray:
    """table[j + d] = <phi0| O e^{-i j tau H} |phi0>; an einsum, as
    :func:`expectation_table_1d`."""
    return np.einsum("rk,k->r", _phase_rows(spectral, d, phases),
                     _observable_weights(spectral, phi0, o_matrix))


def expectation_table_2d(spectral: SpectralData, phi0, o_matrix, d: int, *,
                         states=None, moved=None) -> np.ndarray:
    """table[j + d, j' + d] = <phi0| e^{-ij tau H} O e^{-ij' tau H} |phi0>.

    <phi0| e^{-ij tau H} is psi_{-j}^H, so the bras are the state columns in
    reverse order.  A caller that already holds Psi (:func:`table_states`)
    or O Psi passes them as ``states`` and ``moved``.
    """
    if states is None:
        states = table_states(spectral, phi0, d)
    if moved is None:
        moved = observable(o_matrix, spectral.dim).apply(states)
    return two_time(states[:, ::-1], moved)


def block_norm_table(spectral: SpectralData, phi0, o_matrix, d: int, *,
                     moved=None) -> np.ndarray:
    """nsq[j' + d] = ||O e^{-i j' tau H} phi0||^2; ``moved`` is O Psi when
    the caller holds it."""
    if moved is None:
        moved = observable(o_matrix, spectral.dim).apply(
            table_states(spectral, phi0, d))
    return np.linalg.norm(moved, axis=0) ** 2


@dataclass(frozen=True)
class OracleTables:
    """The shot laws (:func:`outcome_law`) one estimate samples from, of:

    gse : :func:`expectation_table_1d` at the GSE degree, or None for an
        estimate without a GSE stage
    overlap : :func:`expectation_table_1d` at the property degree d
    weighted : the weighted stage's table at degree d,
        :func:`expectation_table_O` for the one-time kind and
        :func:`expectation_table_2d` for the two-time and block kinds, the
        block kind's read with :func:`block_norm_table` and alpha
    """

    gse: np.ndarray | None
    overlap: np.ndarray
    weighted: np.ndarray


TABLE_KINDS = ("one-time", "two-time", "block")


def _content_key(obs: Observable) -> tuple:
    """An observable by content: its signed-permutation form, or a SHA-256
    digest of its dense matrix, so the key holds no copy of the matrix."""
    if obs.columns is not None:
        return ("permutation", obs.columns.tobytes(), obs.values.tobytes())
    return ("dense", hashlib.sha256(np.ascontiguousarray(obs.matrix)).digest())


def _weighted_tables(spectral: SpectralData, phi0, obs: Observable, d: int,
                     kind: str, source: np.ndarray) -> tuple:
    """(table, norms) of the weighted stage from ``source``: the phase block
    for the one-time kind, Psi for the two-time kinds, whose table and
    norms (block kind only, else None) share one O Psi."""
    if kind == "one-time":
        return expectation_table_O(spectral, phi0, obs, d, phases=source), None
    moved = obs.apply(source)
    return (expectation_table_2d(spectral, phi0, obs, d, states=source, moved=moved),
            block_norm_table(spectral, phi0, obs, d, moved=moved) if kind == "block"
            else None)


def oracle_tables(spectral: SpectralData, phi0, observables, d: int, *,
                  d_gse: int | None = None, kind: str = "two-time",
                  alpha: float = 1.0) -> Iterator[OracleTables]:
    """Yield the :class:`OracleTables` of each observable in turn: the laws
    of the one-time tables of phi0 at ``d_gse`` and ``d`` and of the
    ``kind`` table (one of TABLE_KINDS) of the observable at ``d``.

    Every estimate gets its laws here, the one place a table becomes a law
    (a block table with its norms and ``alpha``); a table is dropped once
    its law is built.  The instance keeps the laws it yielded last, keyed by
    the bytes of phi0, the observable's content (:func:`_content_key`),
    ``d``, ``d_gse``, ``kind`` and ``alpha``; an equal key is a hit and
    builds nothing.  A miss first drops the kept laws, so at most one
    weighted law is held by the instance, then builds one phase block at the
    larger degree, the one-time laws and Psi (:func:`table_states`; the
    phase block itself for the one-time kind) once for all the observables
    that miss, and each weighted law only when it is asked for.  The phase
    block is dropped once Psi is built, and Psi before the last observable's
    law is built, so none is alive while the caller samples.  Hit or miss,
    the laws are bit-identical to those of stand-alone tables.
    """
    if kind not in TABLE_KINDS:
        raise ValueError(f"table kind must be one of {TABLE_KINDS}, got {kind!r}")
    phi0 = as_state(phi0, dim=spectral.dim)
    observables = [observable(op, spectral.dim) for op in observables]
    memo = spectral._table_memo
    one_time = source = None
    for index, obs in enumerate(observables):
        key = (phi0.tobytes(), _content_key(obs), d, d_gse, kind, alpha)
        laws = memo.get(key)
        if laws is None:
            memo.clear()
            if source is None:
                phases = phase_block(spectral, max(d, d_gse or 0))
                if one_time is None:
                    one_time = tuple(
                        None if degree is None else outcome_law(
                            expectation_table_1d(spectral, phi0, degree, phases=phases))
                        for degree in (d_gse, d))
                source = (phases if kind == "one-time"
                          else table_states(spectral, phi0, d, phases=phases))
                del phases
            table, norms = _weighted_tables(spectral, phi0, obs, d, kind, source)
        if index == len(observables) - 1:
            source = None
        if laws is None:
            laws = memo[key] = OracleTables(*one_time, outcome_law(table, norms, alpha))
            del table, norms
        one_time = laws.gse, laws.overlap
        yield laws


def exact_expectation_1d(spectral: SpectralData, phi0, j: int) -> complex:
    """<phi0| e^{-i j tau H} |phi0>."""
    return complex((_phases(spectral.scaled_eigenvalues, [j])
                    @ overlaps(phi0, spectral))[0])


def exact_expectation_O(spectral: SpectralData, phi0, o_matrix, j: int) -> complex:
    """<phi0| O e^{-i j tau H} |phi0>."""
    return complex((_phases(spectral.scaled_eigenvalues, [j])
                    @ _observable_weights(spectral, phi0, o_matrix))[0])


def _two_time_at(spectral: SpectralData, phi0, o_matrix, eigenvalues,
                 s: float, t: float) -> complex:
    """<phi0| e^{-i s H} O e^{-i t H} |phi0>: the bra evolved to -s, the ket
    to t."""
    states = _evolved_states(spectral, phi0, _phases(eigenvalues, [-s, t]))
    moved = as_matrix(o_matrix, spectral.dim) @ states[:, 1:]
    return complex(two_time(states[:, :1], moved)[0, 0])


def exact_expectation_2d(spectral: SpectralData, phi0, o_matrix,
                         j: int, j2: int) -> complex:
    """<phi0| e^{-i j tau H} O e^{-i j2 tau H} |phi0>."""
    return _two_time_at(spectral, phi0, o_matrix, spectral.scaled_eigenvalues,
                        j, j2)


def exact_expectation_block(spectral: SpectralData, phi0, o_matrix,
                            t1: float, t2: float) -> complex:
    """<phi0| e^{-i H t2} O e^{-i H t1} |phi0> for unnormalized times."""
    return _two_time_at(spectral, phi0, o_matrix, spectral.eigenvalues, t2, t1)


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


# --- block encoding ----------------------------------------------------------

def embed_block(operator, alpha: float | None = None) -> BlockEncoding:
    """Block encoding of a Hermitian O; ``alpha`` defaults to max(1, ||O||_2),
    read off the eigenvalues of O.

    With T = O/alpha and R = sqrt(I - clip(T)^2) from one eigensystem, T and
    R commute, so U^H U - I is T^2 + R^2 - I on both diagonal blocks and its
    2-norm is max(0, (||O||_2/alpha)^2 - 1): the unitarity check needs no U.
    """
    if alpha is not None and (isinstance(alpha, bool)
                              or not isinstance(alpha, numbers.Real)
                              or not math.isfinite(alpha) or alpha <= 0):
        raise BlockEncodingError(f"alpha must be a finite number > 0, got {alpha!r}")
    o_mat = as_matrix(operator)
    norm = float(np.abs(hermitian_eigh(
        o_mat, vectors=False, error=BlockEncodingError,
        message="block-encoded observable must be Hermitian")).max())
    if alpha is None:
        alpha = max(1.0, norm)
    if norm > alpha + 1e-12:
        raise BlockEncodingError(f"||O|| = {norm:.6g} exceeds alpha = {alpha}")
    dev = max(0.0, (norm / alpha) ** 2 - 1.0)
    if dev > UNITARY_TOL:
        raise BlockEncodingError(f"embedding is not unitary (deviation {dev:.3e})")
    return BlockEncoding(operator=o_mat, alpha=float(alpha))


def _system_propagator(spectral: SpectralData, t: float) -> np.ndarray:
    """e^{-iHt} = V e^{-it Lambda} V^H."""
    phases = np.exp(-1j * t * spectral.eigenvalues)
    return spectral.from_eigenbasis(
        phases[:, None] * spectral.to_eigenbasis(np.eye(spectral.dim)))


def block_circuit_distribution(spectral, phi0, block: BlockEncoding,
                               t1: float, t2: float, w: str):
    """Nine-step post-selected Hadamard test, simulated literally.

    Returns (p_fail, p_value_plus, p_value_minus) where the value alphabet is
    {0, +alpha, -alpha}: with W = I outcome 0 carries +alpha, with W = S
    outcome 1 carries +alpha.
    """
    phi0 = as_state(phi0, dim=block.system_dim)
    dim = block.system_dim
    start = np.kron([1.0, 0.0], phi0)
    b0 = start / math.sqrt(2.0)
    b1 = start / math.sqrt(2.0)
    prop1 = _system_propagator(spectral, t1)
    b1 = (np.kron(np.eye(2), prop1)) @ b1
    b1 = block.unitary @ b1
    # measure the encoding ancilla; keep its 0 block
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


# --- generalized (variance-reduced) block test -------------------------------

def generalized_circuit_distribution(spectral, phi0, block: BlockEncoding,
                                     t1: float, t2: float, a: float, w: str):
    """Block test with the first Hadamard replaced by G(a, b, 0), b=sqrt(1-a^2),
    and the closing gate fixed to G(1/sqrt2, 1/sqrt2, 0).

    Value alphabet is {0, +-alpha/(2ab)}; returns (p_fail, p_plus, p_minus)
    where with W = I outcome (1, 0) carries the + value and with W = S
    outcome (0, 0) does, so that E[X] = Re and E[Y] = Im of the target.
    """
    if not 0.0 < a < 1.0:
        raise ValueError(f"gate parameter a must be in (0, 1), got {a}")
    b = math.sqrt(1.0 - a * a)
    phi0 = as_state(phi0, dim=block.system_dim)
    dim = block.system_dim
    start = np.kron([1.0, 0.0], phi0)
    b0 = a * start
    b1 = -b * start
    b1 = (np.kron(np.eye(2), _system_propagator(spectral, t1))) @ b1
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


def generalized_second_moment(nsq: float, alpha: float, a: float) -> float:
    """Closed-form E[X^2] = alpha^2/(4 a^2 b^2) * (a^2 + b^2 * nsq / alpha^2)
    where nsq = ||O e^{-iHt1} phi0||^2."""
    bsq = 1.0 - a * a
    return alpha ** 2 / (4.0 * a * a * bsq) * (a * a + bsq * nsq / alpha ** 2)


def generalized_variance(e_real: float, nsq: float, alpha: float, a: float) -> float:
    return generalized_second_moment(nsq, alpha, a) - e_real ** 2


# --- vectorized fast paths (tables of exact expectations) --------------------

# Shots per chunk of a pool (:func:`sample_blocks`).  A chunk's per-shot
# temporaries (cells, J, the gathered law rows, uniforms, outcomes: under
# 100 B per shot, for fewer than 2 * SAMPLE_BLOCK shots) bound a pool's
# working set whatever its group size; at 2^16 a two-time group of ~105 k
# shots was one chunk whose ~9 MB of them set a run's peak RSS.  2^15 was
# picked by a sweep over 2^12..2^16 on the benchmark's four workloads as the
# largest peak-RSS cut that slows none of them: 2^14 cuts more but splits
# 50 k-shot two-time groups into three chunks, each a fixed few dozen
# microseconds of numpy calls (README, the shot-pool paragraph).
SAMPLE_BLOCK = 1 << 15


def sample_blocks(size: int):
    """Consecutive slices covering range(size): one slice when size is below
    2 * SAMPLE_BLOCK, else SAMPLE_BLOCK elements each with the remainder
    folded into the last, so no slice reaches 2 * SAMPLE_BLOCK elements.

    A shot pool draws each of its groups in these chunks, so whatever its
    group size a pool holds per-shot temporaries of at most one chunk; the
    stream order is in ``estimators._pool_sums``.
    """
    bounds = [SAMPLE_BLOCK * i for i in range(max(1, size // SAMPLE_BLOCK))]
    for lo, hi in zip(bounds, bounds[1:] + [size]):
        yield slice(lo, hi)


def outcome_law(table: np.ndarray, nsq: np.ndarray | None = None,
                alpha: float = 1.0) -> np.ndarray:
    """Outcome law of the Hadamard test on every cell of ``table``, for
    :func:`draw_block_xy`.

    The law keeps the cell axes, J' major, outcome columns last: law[j + d]
    of a one-time table, law[j' + d, j + d] of a two-time one, which its
    flattened view holds at row (j' + d)(2d + 1) + (j + d).  For the entry
    e at a cell, P(X = +alpha) = clip((p_succ + Re e / alpha) / 2, 0, 1),
    likewise P(X = -alpha) with - Re e, and Y reads Im e.  Without ``nsq``
    no shot fails, p_succ = 1, and a cell holds [P(X = +alpha),
    P(Y = +alpha)]: at alpha = 1 the +-1 test of a unitary observable.
    With ``nsq`` (the post-selected block circuit on a two-time table)
    p_succ = (1 + nsq[j' + d] / alpha^2) / 2 depends on the first evolution
    j' alone, and a cell holds [P(X = +alpha), P(Y = +alpha), P(X != 0),
    P(Y != 0)], P(!= 0) the sum of P(+) and P(-).  At alpha = 1 and nsq = 1
    its first two columns are the +-1 law, bit for bit.
    """
    cells = table.T  # J' major; a one-time table stays as it is
    p_succ = 1.0 if nsq is None else 0.5 * (1.0 + nsq[:, None] / alpha ** 2)
    width = 2 if nsq is None else 4
    law = np.empty(cells.shape + (width,))
    for col, part in ((0, cells.real), (1, cells.imag)):
        part = part if alpha == 1.0 else part / alpha  # x / 1 is x: skip the pass
        law[..., col] = plus = np.clip(0.5 * (p_succ + part), 0.0, 1.0)
        if nsq is not None:
            law[..., col + 2] = plus + np.clip(0.5 * (p_succ - part), 0.0, 1.0)
    return law


def draw_block_xy(law: np.ndarray, cells: np.ndarray, alpha: float,
                  rng) -> np.ndarray:
    """Vector of z = X + iY draws of the Hadamard test, one per flat cell in
    ``cells``, from the rows of a flattened cell law of :func:`outcome_law`.

    A uniform u gives alpha (2 [u < P(= +alpha)] - [u < P(!= 0)]): +alpha
    below P(= +alpha), -alpha below P(!= 0) and 0 above it.  A two-column
    law has no zero outcome, P(!= 0) = 1, so its shots are +-alpha.  Every
    X is drawn before any Y.
    """
    rows = np.take(law, cells, axis=0)  # law[cells]; take gathers rows faster
    xy = np.empty((rows.shape[0], 2))
    for col in (0, 1):  # every X, then every Y
        u = rng.random(rows.shape[0])
        plus = np.less(u, rows[:, col]).view(np.int8)
        value = plus + plus  # 2 plus - nonzero in {-1, 0, 1}: plus implies nonzero
        value -= np.less(u, rows[:, col + 2]).view(np.int8) if law.shape[1] == 4 else 1
        xy[:, col] = value
    if alpha != 1.0:
        xy *= alpha
    return xy.view(complex).reshape(-1)


def draw_xy_pm1(law: np.ndarray, cells: np.ndarray, rng) -> np.ndarray:
    """:func:`draw_block_xy` at alpha = 1.  No pipeline calls it; it is kept
    as a separate function only because ``perfbench/layers.py`` wraps it by
    name (an alias of :func:`draw_block_xy` would be wrapped twice there and
    count every outcome twice)."""
    return draw_block_xy(law, cells, 1.0, rng)
