"""JSON schemas for operators, instances, configs and result records.

Complex scalars are serialized as ``[re, im]`` pairs; complex matrices as
nested lists of pairs.  Result records are written with sorted keys and a
fixed indentation so identical (config, seed) runs produce byte-identical
files.
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from typing import Any

import numpy as np

from .applications import LinearSystemInstance, singular_values
from .pauli import OperatorError, PauliOperator, build_operator, diagonal_operator


class ConfigError(ValueError):
    """Config or instance file failed to parse; message carries field context."""


def parse_number(value, field: str, accept=lambda v: True,
                 requirement: str = "a number") -> float:
    """``value`` as a float when it is a JSON number that ``accept`` takes;
    a ConfigError naming ``field`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not accept(float(value)):
        raise ConfigError(f"{field} must be {requirement}, got {value!r}")
    return float(value)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def parse_operator(spec: dict, field: str = "operator") -> PauliOperator:
    """{"n": int, "terms": [{"coeff": float, "word": "XYZ.."}]}"""
    try:
        n = int(spec["n"])
        terms = [(float(t["coeff"]), str(t["word"])) for t in spec["terms"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{field}: expected {{n, terms:[{{coeff, word}}]}} "
                          f"({exc})") from exc
    try:
        op = build_operator(terms)
    except OperatorError as exc:
        raise ConfigError(f"{field}: {exc}") from exc
    if op.n != n:
        raise ConfigError(f"{field}: declared n={n} but words have length {op.n}")
    return op


def complex_to_pair(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def pair_to_complex(pair, field: str) -> complex:
    """A JSON number, or an [re, im] pair of them, as a complex."""
    re, im = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 \
        else (pair, 0.0)
    requirement = "numbers or [re, im] pairs of numbers"
    return complex(parse_number(re, field, requirement=requirement),
                   parse_number(im, field, requirement=requirement))


def parse_complex_matrix(rows, field: str) -> np.ndarray:
    if not isinstance(rows, list):
        raise ConfigError(f"{field} must be a list of rows, got {rows!r}")
    rows = [parse_complex_vector(row, field) for row in rows]
    if len({row.size for row in rows}) > 1:
        raise ConfigError(f"{field} must have rows of one length")
    return np.array(rows, dtype=complex)


def parse_complex_vector(entries, field: str) -> np.ndarray:
    if not isinstance(entries, list):
        raise ConfigError(f"{field} must be a list, got {entries!r}")
    return np.array([pair_to_complex(e, field) for e in entries], dtype=complex)


def parse_linear_system(spec: dict) -> LinearSystemInstance:
    try:
        a = parse_complex_matrix(spec["A"], "instance.A")
        b = parse_complex_vector(spec["b"], "instance.b")
    except KeyError as exc:
        raise ConfigError(f"instance: linear system needs field {exc}") from exc
    if a.shape != (b.size, b.size):
        raise ConfigError(f"instance.A must be a square matrix of b's length "
                          f"{b.size}, got shape {a.shape}")
    kappa = spec.get("kappa")
    if kappa is None:
        kappa = 1.0 / singular_values(a).min()
    return LinearSystemInstance(a=a, b=b, kappa=parse_number(kappa, "instance.kappa"))


def parse_synthetic(spec: dict, gamma: float | None = None):
    """Synthetic diagonal instance: eigenvalues (entries may be the string
    "gamma", filled from the sweep grid) plus eigenbasis overlaps."""
    raw = spec.get("eigenvalues")
    if not raw:
        raise ConfigError("instance: synthetic instance needs eigenvalues")
    if not isinstance(raw, list):
        raise ConfigError(f"instance.eigenvalues must be a list, got {raw!r}")
    values = []
    for entry in raw:
        if entry == "gamma":
            if gamma is None:
                raise ConfigError('instance: eigenvalue placeholder "gamma" '
                                  "used outside a gamma sweep")
            values.append(float(gamma))
        else:
            values.append(parse_number(entry, "instance.eigenvalues",
                                       requirement='a number or "gamma"'))
    dim = len(values)
    n = max(1, math.ceil(math.log2(dim)))
    padded = values + [max(values)] * (2 ** n - dim)
    operator = diagonal_operator(padded)
    weights = spec.get("overlaps")
    if weights is None:
        raise ConfigError("instance: synthetic instance needs overlaps")
    if not isinstance(weights, list):
        raise ConfigError(f"instance.overlaps must be a list, got {weights!r}")
    weights = np.array([parse_number(w, "instance.overlaps") for w in weights],
                       dtype=float)
    if weights.size != dim or abs(weights.sum() - 1.0) > 1e-9 or weights.min() < 0:
        raise ConfigError("instance: overlaps must be a distribution over the "
                          "declared eigenvalues")
    padded_w = np.zeros(2 ** n)
    padded_w[:dim] = weights
    return operator, padded_w


def json_safe(value):
    """Recursively convert report intermediates to JSON-serializable values."""
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, (np.complexfloating, complex)):
        return complex_to_pair(complex(value))
    if isinstance(value, np.ndarray):
        return [json_safe(v) for v in value.tolist()]
    return value


def write_record(record: dict, path: str) -> None:
    """Atomic, deterministic persistence (sorted keys, fixed indent)."""
    payload = json.dumps(json_safe(record), sort_keys=True, indent=2) + "\n"
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
