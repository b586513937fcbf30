"""Pauli-string operator algebra.

Conventions: a Pauli word is a string over ``IXYZ`` read left to right, qubit 0
first.  Qubit 0 is the *most significant* tensor factor, i.e. the dense matrix
of a word is ``kron(m[word[0]], kron(m[word[1]], ...))``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

PAULI_AXES = "IXYZ"

# diagonal of Z (for Z and Y letters) or of I, and i^k exactly
_SIGNS = (np.ones(2), np.array([1.0, -1.0]))
_I_POWERS = (1.0 + 0.0j, 1j, -1.0 + 0.0j, -1j)

# (a, b) -> (k, c) with  a*b = i^k * c  for single-qubit Paulis.
_PRODUCT = {
    ("I", "I"): (0, "I"), ("I", "X"): (0, "X"), ("I", "Y"): (0, "Y"), ("I", "Z"): (0, "Z"),
    ("X", "I"): (0, "X"), ("X", "X"): (0, "I"), ("X", "Y"): (1, "Z"), ("X", "Z"): (3, "Y"),
    ("Y", "I"): (0, "Y"), ("Y", "X"): (3, "Z"), ("Y", "Y"): (0, "I"), ("Y", "Z"): (1, "X"),
    ("Z", "I"): (0, "Z"), ("Z", "X"): (1, "Y"), ("Z", "Y"): (3, "X"), ("Z", "Z"): (0, "I"),
}

DENSE_QUBIT_CAP = 12


class OperatorError(ValueError):
    """Malformed operator input (inconsistent words, bad coefficients, ...)."""


def check_dense_size(n: int) -> None:
    if n > DENSE_QUBIT_CAP:
        raise OperatorError(f"dense rendering capped at {DENSE_QUBIT_CAP} qubits, got n={n}")


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. ``ZZI`` on three qubits."""

    word: str

    def __post_init__(self):
        if not self.word or any(c not in PAULI_AXES for c in self.word):
            raise OperatorError(f"invalid Pauli word {self.word!r}")

    @property
    def n(self) -> int:
        return len(self.word)

    def signed_permutation(self) -> tuple[np.ndarray, np.ndarray]:
        """(rows, values): column c of the matrix holds values[c] at row
        rows[c] = c ^ x and zeros elsewhere, with
        values[c] = i^{#Y} (-1)^{popcount(c & z)}, where the mask x marks the
        X and Y letters and z the Z and Y letters (qubit 0 the most
        significant bit)."""
        x = 0
        for letter in self.word:
            x = 2 * x + (letter in "XY")
        # (-1)^{popcount(c & z)} for every c: the Kronecker product of the
        # letters' diagonal signs
        signs = functools.reduce(np.kron,
                                 [_SIGNS[letter in "YZ"] for letter in self.word])
        return np.arange(2 ** self.n) ^ x, _I_POWERS[self.word.count("Y") % 4] * signs

    def matrix(self) -> np.ndarray:
        check_dense_size(self.n)
        rows, values = self.signed_permutation()
        out = np.zeros((values.size, values.size), dtype=complex)
        out[rows, np.arange(values.size)] = values
        return out

    def __str__(self) -> str:
        return self.word


def multiply_strings(a: PauliString, b: PauliString) -> tuple[int, PauliString]:
    """Product ``a @ b = i^k * c``; returns ``(k mod 4, c)`` with the phase
    tracked exactly as a power of i."""
    if a.n != b.n:
        raise OperatorError(f"qubit count mismatch: {a.n} vs {b.n}")
    k = 0
    chars = []
    for ca, cb in zip(a.word, b.word):
        dk, cc = _PRODUCT[(ca, cb)]
        k += dk
        chars.append(cc)
    return k % 4, PauliString("".join(chars))


def strings_commute(a: PauliString, b: PauliString) -> bool:
    """Two Pauli strings commute iff they anticommute on an even number of sites."""
    odd = sum(1 for ca, cb in zip(a.word, b.word)
              if ca != "I" and cb != "I" and ca != cb)
    return odd % 2 == 0


@dataclass(frozen=True)
class PauliOperator:
    """Real-weighted sum of Pauli strings over a common qubit register.

    Real coefficients make the dense matrix Hermitian.  Terms are stored
    merged and sorted by word; use :func:`build_operator` to construct.
    """

    terms: tuple[tuple[float, PauliString], ...]
    n: int

    def matrix(self) -> np.ndarray:
        """Sum of the terms, each scattered onto its one nonzero per column."""
        check_dense_size(self.n)
        columns = np.arange(2 ** self.n)
        out = np.zeros((columns.size, columns.size), dtype=complex)
        for coeff, string in self.terms:
            rows, values = string.signed_permutation()
            out[rows, columns] += coeff * values
        return out

    def coefficient_norm(self) -> float:
        """Sum of |coefficients|, an upper bound on the spectral norm."""
        return float(sum(abs(c) for c, _ in self.terms))

    def __str__(self) -> str:
        return " + ".join(f"{c:g}*{s}" for c, s in self.terms) or "0"


def build_operator(terms) -> PauliOperator:
    """Build a :class:`PauliOperator` from ``(coefficient, word)`` pairs.

    Duplicate words are merged; exact zero coefficients are dropped after
    merging.  All words must share one qubit count and coefficients must be
    finite reals.
    """
    terms = list(terms)
    if not terms:
        raise OperatorError("empty term list")
    merged: dict[str, float] = {}
    n = None
    for coeff, word in terms:
        if isinstance(word, PauliString):
            word = word.word
        coeff = float(coeff)
        if not math.isfinite(coeff):
            raise OperatorError(f"non-finite coefficient {coeff!r} for {word!r}")
        string = PauliString(word)
        if n is None:
            n = string.n
        elif string.n != n:
            raise OperatorError(f"inconsistent word lengths: {string.n} vs {n}")
        merged[word] = merged.get(word, 0.0) + coeff
    kept = tuple(
        (c, PauliString(w)) for w, c in sorted(merged.items()) if c != 0.0
    )
    return PauliOperator(terms=kept, n=n)


def diagonal_operator(values) -> PauliOperator:
    """Z-word decomposition of a real diagonal matrix.

    ``values`` must have length ``2**n``.  The coefficient of the Z-word with
    support mask ``w`` is the Walsh transform ``2^-n * sum_b v_b (-1)^{popcount(w & b)}``.
    Used to realize synthetic spectra as genuine Pauli operators.
    """
    values = np.asarray(values, dtype=float)
    n = int(round(math.log2(values.size)))
    if 2 ** n != values.size:
        raise OperatorError(f"diagonal length {values.size} is not a power of two")
    terms = []
    for mask in range(2 ** n):
        signs = np.array([(-1) ** bin(mask & b).count("1") for b in range(2 ** n)])
        coeff = float(values @ signs) / 2 ** n
        if abs(coeff) > 1e-15:
            word = "".join("Z" if (mask >> (n - 1 - q)) & 1 else "I" for q in range(n))
            terms.append((coeff, word))
    if not terms:
        terms = [(0.0, "I" * n)]
        return PauliOperator(terms=tuple((c, PauliString(w)) for c, w in terms), n=n)
    return build_operator(terms)
