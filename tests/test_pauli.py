import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gspe.pauli import (OperatorError, PauliString, build_operator,
                        diagonal_operator, multiply_strings, strings_commute)

from conftest import dense_from_terms, kron_word

words = st.text(alphabet="IXYZ", min_size=1, max_size=5)


def test_single_qubit_z():
    op = build_operator([(1.0, "Z")])
    assert np.allclose(op.matrix(), np.diag([1.0, -1.0]))


def test_three_term_operator_is_hermitian():
    op = build_operator([(0.5, "ZI"), (0.5, "IZ"), (0.25, "XX")])
    assert len(op.terms) == 3
    mat = op.matrix()
    assert mat.shape == (4, 4)
    assert np.linalg.norm(mat - mat.conj().T) <= 1e-12


def test_duplicate_terms_merge():
    op = build_operator([(1.0, "X"), (1.0, "X")])
    assert op.terms == ((2.0, PauliString("X")),)


def test_exact_cancellation_drops_term():
    op = build_operator([(1.0, "X"), (-1.0, "X"), (0.5, "Z")])
    assert op.terms == ((0.5, PauliString("Z")),)


@pytest.mark.parametrize("bad", [
    [(1.0, "XY"), (1.0, "X")],
    [(float("nan"), "X")],
    [(float("inf"), "Z")],
    [],
    [(1.0, "A")],
])
def test_rejects_malformed_input(bad):
    with pytest.raises(OperatorError):
        build_operator(bad)


@given(words)
@settings(max_examples=60, deadline=None)
def test_string_squares_to_identity(word):
    mat = PauliString(word).matrix()
    assert np.allclose(mat @ mat, np.eye(2 ** len(word)), atol=1e-12)


@given(words)
@settings(max_examples=40, deadline=None)
def test_string_matches_reference_kron(word):
    assert np.allclose(PauliString(word).matrix(), kron_word(word), atol=0)


SHORT_WORDS = ["".join(w) for n in (1, 2, 3) for w in itertools.product("IXYZ", repeat=n)]


@pytest.mark.parametrize("word", SHORT_WORDS + ["XYZIZYXIXY", "YYYYYYYYYY",
                                                "ZIZIZIZIXX", "IIIIIIIIIY"])
def test_string_matrix_equals_kron_chain(word):
    """The signed-permutation rule gives the Kronecker chain, entry for entry."""
    assert np.array_equal(PauliString(word).matrix(), kron_word(word))


def test_operator_matrix_equals_kron_sum(rng):
    terms = [(rng.normal(), "".join(rng.choice(list("IXYZ"), size=5)))
             for _ in range(16)]
    op = build_operator(terms)
    want = dense_from_terms([(c, s.word) for c, s in op.terms])
    assert op.matrix().tobytes() == want.tobytes()


@given(st.integers(1, 4), st.data())
@settings(max_examples=60, deadline=None)
def test_product_phase_tracking(n, data):
    wa = data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    wb = data.draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    k, prod = multiply_strings(PauliString(wa), PauliString(wb))
    lhs = kron_word(wa) @ kron_word(wb)
    assert np.allclose(lhs, 1j ** k * kron_word(prod.word), atol=1e-12)
    assert strings_commute(PauliString(wa), PauliString(wb)) == \
        bool(np.allclose(lhs, kron_word(wb) @ kron_word(wa), atol=1e-12))


def test_known_products():
    k, s = multiply_strings(PauliString("X"), PauliString("Y"))
    assert (k, s.word) == (1, "Z")
    k, s = multiply_strings(PauliString("Y"), PauliString("X"))
    assert (k, s.word) == (3, "Z")


def test_real_coefficients_give_hermitian_matrix(rng):
    terms = [(rng.normal(), "".join(rng.choice(list("IXYZ"), size=3)))
             for _ in range(6)]
    mat = build_operator(terms).matrix()
    assert np.linalg.norm(mat - mat.conj().T) <= 1e-12


def test_coefficient_norm_bounds_spectrum(rng):
    terms = [(rng.normal(), "".join(rng.choice(list("IXYZ"), size=2)))
             for _ in range(4)]
    op = build_operator(terms)
    if not op.terms:
        pytest.skip("terms cancelled")
    assert np.abs(np.linalg.eigvalsh(op.matrix())).max() \
        <= op.coefficient_norm() + 1e-12


def test_diagonal_operator_roundtrip(rng):
    values = rng.normal(size=8)
    op = diagonal_operator(values)
    assert np.allclose(op.matrix(), np.diag(values), atol=1e-12)


def test_dense_cap():
    with pytest.raises(OperatorError):
        PauliString("I" * 13).matrix()
