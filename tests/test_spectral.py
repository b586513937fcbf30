import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspe import build_operator, diagonalize, evolve, overlaps
from gspe.spectral import (DegenerateGroundSpaceError, DimensionMismatchError,
                           SpectralData, as_state, exact_cdf, hermitian_eigh,
                           mixed_with_noise, weighted_cdf_2d,
                           weighted_cdf_commuting)

from conftest import TFIM3_TERMS, dense_from_terms, random_state


def test_diagonalize_z():
    s = diagonalize(build_operator([(1.0, "Z")]))
    assert np.allclose(s.eigenvalues, [-1.0, 1.0])
    assert s.gap == pytest.approx(2.0)
    assert s.tau == pytest.approx(math.pi / 3.0)


def test_diagonalize_x_eigenvectors():
    s = diagonalize(build_operator([(1.0, "X")]))
    minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
    plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(abs(minus.conj() @ s.eigenvectors[:, 0]) - 1.0) < 1e-12
    assert abs(abs(plus.conj() @ s.eigenvectors[:, 1]) - 1.0) < 1e-12


def test_diagonalize_returns_a_read_only_eigensystem():
    """The instance keeps tables built from its eigensystem, so an in-place
    write to it must fail rather than leave them stale."""
    s = diagonalize(build_operator(TFIM3_TERMS))
    for array in (s.eigenvalues, s.eigenvectors):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            array *= 2.0
    assert "_table_memo" not in repr(s)


def test_tfim_gap_matches_independent_solver(tfim3):
    _, s = tfim3
    ref = np.linalg.eigvalsh(dense_from_terms(TFIM3_TERMS))
    assert abs(s.gap - (ref[1] - ref[0])) <= 1e-10
    assert np.allclose(s.eigenvalues, ref, atol=1e-10)


def test_degenerate_ground_space_rejected():
    op = build_operator([(1.0, "ZZ"), (0.4, "XI")])
    with pytest.raises(DegenerateGroundSpaceError):
        diagonalize(op)


@pytest.mark.parametrize("vec", [[1.0, 1.0], [np.nan, 0.0]])
def test_as_state_rejects_non_unit_norm(vec):
    with pytest.raises(ValueError, match="deviates from 1"):
        as_state(vec, dim=2)


def test_non_hermitian_operator_rejected():
    with pytest.raises(ValueError, match="not Hermitian"):
        diagonalize(np.array([[1.0, 0.5], [0.0, -1.0]]))


def test_complex_non_hermitian_operator_rejected():
    """Complex symmetric, so not Hermitian: the complex path checks too."""
    mat = np.array([[1.0, 0.5j], [0.5j, -1.0]])
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        diagonalize(mat)
    with pytest.raises(ValueError, match="operator is not Hermitian"):
        hermitian_eigh(mat, vectors=False)


# the TFIM is real; the XY term (one Y factor) makes the second one complex
SOLVE_PATHS = {"real": (TFIM3_TERMS, np.float64),
               "complex": (TFIM3_TERMS + [(0.3, "XYI")], np.complex128)}


def _record_eigh_dtypes(monkeypatch):
    seen = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    return seen


@pytest.mark.parametrize("path", list(SOLVE_PATHS))
def test_diagonalize_solves_in_the_matrix_arithmetic(monkeypatch, path):
    terms, solved = SOLVE_PATHS[path]
    seen = _record_eigh_dtypes(monkeypatch)
    diagonalize(build_operator(terms))
    assert seen == [solved]


def test_real_solve_is_handed_a_contiguous_real_h_alone(monkeypatch):
    """The solver of a real H gets a C-contiguous float64 matrix, and the
    complex dense matrix it came from is freed before the solve starts."""
    n = 8
    terms = ([(-1.0, "I" * q + "ZZ" + "I" * (n - q - 2)) for q in range(n - 1)]
             + [(-0.7, "I" * q + "X" + "I" * (n - q - 1)) for q in range(n)])
    operator = build_operator(terms)
    seen = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        seen.append((a.dtype, a.flags.c_contiguous, tracemalloc.get_traced_memory()[0]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    tracemalloc.start()
    try:
        diagonalize(operator)
    finally:
        tracemalloc.stop()
    [(dtype, contiguous, held)] = seen
    assert dtype == np.float64 and contiguous
    assert held < 16 * 4 ** n  # below one complex128 dim x dim matrix


@pytest.mark.parametrize("path", list(SOLVE_PATHS))
def test_diagonalize_matches_complex_solve_on_both_paths(path):
    terms, _ = SOLVE_PATHS[path]
    mat = dense_from_terms(terms)
    s = diagonalize(build_operator(terms))
    ref = np.linalg.eigh(mat)[0]  # complex128 input: the complex solve
    assert np.abs(s.eigenvalues - ref).max() <= 1e-12
    v = s.eigenvectors
    assert v.dtype == (np.float64 if path == "real" else np.complex128)
    assert np.linalg.norm(v.conj().T @ v - np.eye(s.dim)) <= 1e-12
    assert np.linalg.norm(mat @ v - v * s.eigenvalues) <= 1e-12
    if path == "real":
        assert not v.imag.any()


@pytest.mark.parametrize("shape", [(256,), (256, 9)], ids=["vector", "block"])
def test_eigenbasis_maps_of_a_real_v_hold_no_complex_copy(shape):
    """V^H x and V c of a float64 V equal those of V cast to complex128, for
    complex and real operands, and a complex operand never costs a complex
    copy of V (a mixed product would cast all of V)."""
    gen = np.random.default_rng(11)
    v, _ = np.linalg.qr(gen.normal(size=(256, 256)))
    real = SpectralData(eigenvalues=np.arange(256.0), eigenvectors=v, gap=1.0, tau=1.0)
    cast = SpectralData(eigenvalues=real.eigenvalues, eigenvectors=v.astype(complex),
                        gap=1.0, tau=1.0)
    x = gen.normal(size=shape) + 1j * gen.normal(size=shape)
    for operand in (x, x.real.copy()):
        for name in ("to_eigenbasis", "from_eigenbasis"):
            tracemalloc.start()
            try:
                got = getattr(real, name)(operand)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < v.nbytes // 2
            assert got.dtype == operand.dtype
            assert np.abs(got - getattr(cast, name)(operand)).max() <= 1e-13
    with pytest.raises(DimensionMismatchError):
        real.from_eigenbasis(x[:-1])


def test_eigenvector_matrix_unitary(tfim3):
    _, s = tfim3
    v = s.eigenvectors
    assert np.linalg.norm(v.conj().T @ v - np.eye(s.dim)) <= 1e-10


def test_normalized_spectrum_inside_third_pi(tfim3):
    _, s = tfim3
    scaled = s.scaled_eigenvalues
    assert scaled.min() >= -math.pi / 3 - 1e-12
    assert scaled.max() <= math.pi / 3 + 1e-12
    assert np.abs(scaled).max() == pytest.approx(math.pi / 3)


def test_overlaps_ground_state(tfim3):
    _, s = tfim3
    p = overlaps(s.ground_state(), s)
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(p[1:] < 1e-12)


def test_overlaps_plus_state_on_z():
    s = diagonalize(build_operator([(1.0, "Z")]))
    p = overlaps(np.array([1, 1]) / math.sqrt(2), s)
    assert np.allclose(p, [0.5, 0.5])


def test_overlaps_sum_to_one(rng, tfim3):
    _, s = tfim3
    p = overlaps(random_state(rng, s.dim), s)
    assert abs(p.sum() - 1.0) <= 1e-10


def test_evolve_identity_at_zero(rng, tfim3):
    _, s = tfim3
    phi = random_state(rng, s.dim)
    assert np.allclose(evolve(s, phi, 0.0), phi, atol=1e-12)


def test_evolve_diagonal_phases():
    s = diagonalize(build_operator([(1.0, "Z")]))
    phi = np.array([1, 1]) / math.sqrt(2)
    out = evolve(s, phi, math.pi / 2)
    expected = np.array([np.exp(-1j * math.pi / 2),
                         np.exp(1j * math.pi / 2)]) / math.sqrt(2)
    assert np.allclose(out, expected, atol=1e-12)


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=25, deadline=None)
def test_evolve_group_law(t1, t2):
    s = diagonalize(build_operator(TFIM3_TERMS))
    phi = random_state(np.random.default_rng(5), s.dim)
    lhs = evolve(s, evolve(s, phi, t2), t1)
    assert np.allclose(lhs, evolve(s, phi, t1 + t2), atol=1e-9)
    assert abs(np.linalg.norm(lhs) - 1.0) <= 1e-10


def test_evolve_roundtrip(rng, tfim3):
    _, s = tfim3
    phi = random_state(rng, s.dim)
    assert np.allclose(evolve(s, evolve(s, phi, 1.7), -1.7), phi, atol=1e-10)


def test_exact_cdf_properties(rng, tfim3):
    _, s = tfim3
    p = overlaps(random_state(rng, s.dim), s)
    grid = np.linspace(-math.pi / 3 - 0.1, math.pi / 3 + 0.1, 800)
    values = exact_cdf(s, p, grid)
    assert np.all(np.diff(values) >= -1e-15)
    assert values[0] == 0.0
    assert values[-1] == pytest.approx(1.0, abs=1e-10)
    # right continuity on the grid: value at a jump equals the upper limit
    x0 = s.scaled_eigenvalues[0]
    assert exact_cdf(s, p, np.array([x0]))[0] == pytest.approx(p[0], abs=1e-12)


def test_weighted_cdf_2d_matches_commuting_diagonal(rng, tfim3):
    _, s = tfim3
    phi = random_state(rng, s.dim)
    o_diag = rng.uniform(-1, 1, size=s.dim)
    o_mat = s.eigenvectors @ np.diag(o_diag) @ s.eigenvectors.conj().T
    xs = np.linspace(-1.0, 1.0, 7)
    c2 = weighted_cdf_2d(s, phi, o_mat, xs, xs)
    c1 = np.array([weighted_cdf_commuting(s, phi, o_diag, float(x)) for x in xs])
    assert np.allclose(np.diag(c2).real, c1, atol=1e-10)
    assert np.abs(np.diag(c2).imag).max() <= 1e-10


def test_mixed_with_noise_overlap(rng, tfim3):
    _, s = tfim3
    noise = rng.normal(size=s.dim) + 1j * rng.normal(size=s.dim)
    phi = mixed_with_noise(s.ground_state(), noise, 0.37)
    assert overlaps(phi, s)[0] == pytest.approx(0.37, abs=1e-10)
