"""Command-line harness: seeded, reproducible runs of every pipeline.

Commands:
    gspe run <config.json>                 one estimation run, persisted record
    gspe sweep <config.json>              grid over {gamma, epsilon, eta}
    gspe fourier-check --delta D --epsilon E --out F.csv

Exit codes: 0 success, 2 config/instance parse error, 3 pipeline failure.
A run or sweep reads its master seed once, from GSPE_SEED else the config
(default 0); each sweep point runs on, and reports, a seed derived from it.
Seeds expand into per-stage streams via the documented splitting in
:mod:`gspe.seeding`.  File-name fields must be strings.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import math
import os
import sys
import time

import numpy as np

from . import applications, estimators, fourier, hadamard, serialization
from .estimators import EstimationConfig
from .seeding import stage_rng, stage_sequence
from .serialization import ConfigError, parse_number
from .spectral import diagonalize, exact_cdf, mixed_with_noise, normalized, overlaps

EXIT_CONFIG = 2
EXIT_PIPELINE = 3


def _resolve_seed(config: dict) -> int:
    env = os.environ.get("GSPE_SEED")
    if env is None:
        return _integer(config.get("seed", 0), "seed", lambda v: v >= 0,
                        "an integer >= 0")
    try:
        seed = int(env)
    except ValueError:
        seed = env
    return _integer(seed, "GSPE_SEED", lambda v: v >= 0, "an integer >= 0")


def _instance_spec(config: dict) -> dict:
    """The instance object, read from its file when given as a path."""
    spec = config.get("instance")
    if spec is None:
        raise ConfigError("config: missing instance")
    if isinstance(spec, str):
        spec = serialization.load_json(spec)
    if not isinstance(spec, dict):
        raise ConfigError(f"instance must be an object or a file name, got {spec!r}")
    return spec


def _load_instance(config: dict, seed: int, gamma: float | None = None):
    """Returns (spectral, phi0) for Hamiltonian modes."""
    spec = _instance_spec(config)
    kind = spec.get("type", "pauli")
    if kind == "synthetic":
        operator, weights = serialization.parse_synthetic(spec, gamma)
        spectral = diagonalize(operator)
        phi0 = spectral.from_eigenbasis(np.sqrt(weights).astype(complex))
        return spectral, phi0
    if kind == "pauli":
        spectral = diagonalize(serialization.parse_operator(spec, "instance"))
        return spectral, _initial_state(config, spectral, seed)
    raise ConfigError(f"instance: unknown type {kind!r}")


def _integer(value, field: str, accept=lambda v: True,
             requirement: str = "an integer") -> int:
    """``value`` when it is a JSON integer that ``accept`` takes; a
    ConfigError naming ``field`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int) or not accept(value):
        raise ConfigError(f"{field} must be {requirement}, got {value!r}")
    return value


def _real(spec: dict, key: str, default=None, field: str | None = None) -> float:
    """``spec[key]`` (``default`` when absent and given) as a float.  Only the
    JSON type is checked here; ranges are the pipeline's preconditions."""
    if key not in spec and default is not None:
        return default
    if key not in spec:
        raise ConfigError(f"config: missing field {key!r}")
    return parse_number(spec[key], field or key)


def _numbers(values, field: str) -> list:
    """``values`` unchanged when it is a JSON list of numbers."""
    if not isinstance(values, list):
        raise ConfigError(f"{field} must be a list of numbers, got {values!r}")
    for value in values:
        parse_number(value, field, requirement="a list of numbers")
    return values


def _file_name(spec: dict, key: str, field: str | None = None) -> str | None:
    """``spec[key]`` when it is a string; None when absent or null."""
    value = spec.get(key)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{field or key} must be a string or null, got {value!r}")
    return value


def _section(config: dict, key: str) -> dict:
    """``config[key]`` when it is a JSON object; {} when absent or null."""
    value = config.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be an object, got {value!r}")
    return value


def _overlap(spec: dict, field: str, default: float) -> float:
    return parse_number(spec.get("overlap", default), field,
                        lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def _alpha(spec: dict, field: str) -> float | None:
    """None (the default normalization) for an absent or null alpha."""
    if spec.get("alpha") is None:
        return None
    return parse_number(spec["alpha"], field,
                        lambda v: math.isfinite(v) and v > 0.0,
                        "a finite number > 0 or null")


def _initial_state(config: dict, spectral, seed: int):
    spec = _section(config, "initial_state")
    kind = spec.get("type", "plus")
    dim = spectral.dim
    if kind == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if kind == "basis":
        index = _integer(spec.get("index", 0), "initial_state.index",
                         lambda v: 0 <= v < dim, f"an integer in [0, {dim})")
        state = np.zeros(dim, dtype=complex)
        state[index] = 1.0
        return state
    if kind == "ground_mixed":
        overlap = _overlap(spec, "initial_state.overlap", 0.5)
        rng = stage_rng(seed, "state-prep")
        noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return mixed_with_noise(spectral.ground_state(), noise, overlap)
    if kind == "amplitudes":
        re = np.array(_numbers(spec.get("re", []), "initial_state.re"), dtype=float)
        im = np.array(_numbers(spec.get("im", [0.0] * re.size), "initial_state.im"),
                      dtype=float)
        if re.shape != (dim,) or im.shape != (dim,) or not (re.any() or im.any()):
            raise ConfigError(f"initial_state: amplitudes re and im must have "
                              f"length {dim} and not all be zero")
        return normalized(re + 1j * im)
    if kind == "overlaps":
        weights = np.array(_numbers(spec.get("p", []), "initial_state.p"),
                           dtype=float)
        if weights.size != dim or abs(weights.sum() - 1.0) > 1e-9 \
                or weights.min() < 0.0:
            raise ConfigError("initial_state: overlaps must be nonnegative, sum "
                              "to 1 and match the instance dimension")
        return spectral.from_eigenbasis(np.sqrt(weights).astype(complex))
    raise ConfigError(f"initial_state: unknown type {kind!r}")


def _estimation_config(config: dict, seed: int) -> EstimationConfig:
    overrides = _section(config, "shot_overrides")
    gamma = config.get("gamma_override")
    return EstimationConfig(
        epsilon=_real(config, "epsilon"), eta=_real(config, "eta"),
        nu=_real(config, "nu", 0.1), seed=seed,
        gamma=None if gamma is None else _real(config, "gamma_override"),
        n_s=overrides.get("n_s"), n_b=overrides.get("n_b"),
        n_g=overrides.get("n_g"), k=overrides.get("k"))


def _finish_record(config: dict, seed: int, report, exact) -> dict:
    return {"mode": config["mode"], "config": config, "seed": seed,
            "estimate": report.value, "shots": report.shots_used,
            "max_evolution_time": report.budget.max_time,
            "total_evolution_time": report.budget.total_time,
            "intermediate": serialization.json_safe(report.intermediate),
            "exact": exact, "error": abs(complex(report.value) - complex(exact))}


def _write_cdf_trace(path: str, spectral, phi0, gse) -> None:
    grid = np.linspace(-math.pi / 3, math.pi / 3, 401)
    p = overlaps(phi0, spectral)
    exact = np.atleast_1d(exact_cdf(spectral, p, grid))
    # mean of G(x) over the run's own GSE pool, taken as one Certify batch
    pool = gse.sums.sum(axis=0, keepdims=True)
    estimated = [estimators.batch_means(gse.approx, pool, x, gse.shots_used)[0].real
                 for x in grid]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "C_exact", "C_estimated"])
        for row in zip(grid, exact, estimated):
            writer.writerow([f"{v:.12g}" for v in row])


def run_gse(config: dict, seed: int, gamma: float | None = None) -> dict:
    trace = _file_name(config, "cdf_trace")
    spectral, phi0 = _load_instance(config, seed, gamma)
    report = estimators.estimate_gse(spectral, phi0, _estimation_config(config, seed))
    record = _finish_record(config, seed, report, float(spectral.eigenvalues[0]))
    if trace:
        _write_cdf_trace(trace, spectral, phi0, report)
        record["cdf_trace"] = trace
    return record


def _ground_expectation(spectral, o_mat) -> float:
    psi0 = spectral.ground_state()
    return float((psi0.conj() @ o_mat @ psi0).real)


def run_gsprop(config: dict, seed: int, gamma: float | None = None) -> dict:
    mode = config["mode"]
    spectral, phi0 = _load_instance(config, seed, gamma)
    cfg = _estimation_config(config, seed)
    observable = serialization.parse_operator(config.get("observable") or {},
                                              "observable")
    o_mat = observable.matrix()
    if mode == "gsprop-commutative":
        report = estimators.estimate_gsprop_commutative(spectral, phi0, o_mat, cfg)
    elif mode == "gsprop-general":
        report = estimators.estimate_gsprop_general(spectral, phi0, o_mat, cfg)
    else:
        block = hadamard.embed_block(o_mat, _alpha(config, "alpha"))
        report = estimators.estimate_gsprop_block(spectral, phi0, block, cfg)
    return _finish_record(config, seed, report, _ground_expectation(spectral, o_mat))


def run_qlss(config: dict, seed: int) -> dict:
    spec = _instance_spec(config)
    if spec.get("type") != "linear_system":
        raise ConfigError('qlss mode needs instance {"type": "linear_system", ...}')
    inst = serialization.parse_linear_system(spec)
    observable = serialization.parse_operator(config.get("observable") or {},
                                              "observable")
    qlss_opts = _section(config, "qlss")
    overrides = _section(config, "shot_overrides")
    report = applications.qlss_estimate(
        inst, observable, _real(config, "epsilon"), _real(config, "nu", 0.1),
        qlss_opts.get("initial_state_mode", "oracle"),
        overlap=_overlap(qlss_opts, "qlss.overlap", 0.6),
        eta=None if config.get("eta") is None else _real(config, "eta"),
        alpha=_alpha(qlss_opts, "qlss.alpha"),
        seed=seed, n_g=overrides.get("n_g"), k=overrides.get("k"))
    return _finish_record(config, seed, report, report.intermediate["exact"])


def run_rdm(config: dict, seed: int) -> dict:
    spectral, phi0 = _load_instance(config, seed)
    cfg = _estimation_config(config, seed)
    rdm = _section(config, "rdm")
    for key in ("p", "q"):
        if key not in rdm:
            raise ConfigError(f"rdm mode needs field rdm.{key}")
    p, q = (_integer(rdm[key], f"rdm.{key}") for key in ("p", "q"))
    n_modes = int(round(math.log2(spectral.dim)))
    report = applications.estimate_1rdm_entry(spectral, phi0, p, q, cfg)
    return _finish_record(config, seed, report,
                          applications.exact_1rdm_entry(spectral, p, q, n_modes))


def run_fourier_check(delta: float, epsilon: float, out: str | None) -> dict:
    approx = fourier.build_fourier_approx(delta, epsilon)
    grid = np.linspace(-math.pi, math.pi, 20001)
    values = fourier.evaluate_coefficients(approx.coefficients, grid)
    steps = fourier.heaviside(grid)
    plateau = (grid >= delta) & (grid <= math.pi - delta)
    trough = (grid >= -math.pi + delta) & (grid <= -delta)
    sup_error = float(max(np.abs(values[plateau] - 1.0).max(),
                          np.abs(values[trough]).max()))
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "heaviside", "F"])
            for x, h, f in zip(grid, steps, values):
                writer.writerow([f"{x:.12g}", int(h), f"{f:.12g}"])
    return {"mode": "fourier-check", "delta": delta, "epsilon": epsilon,
            "d": approx.d, "total_weight": approx.total_weight,
            "sup_error": sup_error,
            "range": [float(values.min()), float(values.max())],
            "output": out}


def _run_fourier_config(config: dict, seed: None) -> dict:
    fspec = _section(config, "fourier")
    return run_fourier_check(_real(fspec, "delta", 0.2, "fourier.delta"),
                             _real(fspec, "epsilon", 0.01, "fourier.epsilon"),
                             _file_name(fspec, "out", "fourier.out"))


# mode -> (runner(config, seed[, gamma]), whether a sweep runs it); a sweep
# runs the Hamiltonian modes, whose runners also take the grid point's gamma
_DISPATCH = {
    "gse": (run_gse, True),
    "gsprop-commutative": (run_gsprop, True),
    "gsprop-general": (run_gsprop, True),
    "gsprop-block": (run_gsprop, True),
    "qlss": (run_qlss, False),
    "fourier-check": (_run_fourier_config, False),
    "rdm": (run_rdm, False),
}


def run(config: dict) -> dict:
    """Execute one configured estimation; returns the result record."""
    mode = config.get("mode")
    if mode not in _DISPATCH:
        raise ConfigError(f"config: mode must be one of {tuple(_DISPATCH)}, "
                          f"got {mode!r}")
    output = _file_name(config, "output")
    # fourier-check draws nothing, so it neither reads nor checks a seed
    seed = None if mode == "fourier-check" else _resolve_seed(config)
    start = time.monotonic()
    record = _DISPATCH[mode][0](config, seed)
    # wall time goes to stderr, not into the record: records must be
    # byte-identical across repeated runs of one (config, seed)
    print(f"[gspe] {mode} finished in {time.monotonic() - start:.2f}s",
          file=sys.stderr)
    if output:
        serialization.write_record(record, output)
    return record


def sweep(config: dict) -> list[dict]:
    """Grid runs over {gamma, epsilon, eta}; returns one record per point."""
    grid = _section(config, "sweep")
    axes = [(key, _numbers(grid[key], f"sweep.{key}"))
            for key in ("gamma", "epsilon", "eta") if key in grid and grid[key]]
    if not axes:
        raise ConfigError("sweep: empty grid (declare gamma/epsilon/eta lists)")
    base = {k: v for k, v in config.items() if k not in ("sweep", "output")}
    mode = base.get("mode")
    modes = tuple(m for m, (_, sweeps) in _DISPATCH.items() if sweeps)
    if mode not in modes:
        raise ConfigError(f"sweep: mode must be one of {modes}, got {mode!r}")
    output = _file_name(config, "output")
    master = _resolve_seed(config)
    records = []
    for index, values in enumerate(itertools.product(*[v for _, v in axes])):
        point = dict(base)
        gamma = None
        for (key, _), value in zip(axes, values):
            if key == "gamma":
                gamma = float(value)
                point["gamma_override"] = gamma
            else:
                point[key] = float(value)
        seq = stage_sequence(master, "sweep-point", index)
        point["seed"] = int(seq.generate_state(1)[0])
        record = _DISPATCH[mode][0](point, point["seed"], gamma)
        record["grid_point"] = {k: v for (k, _), v in zip(axes, values)}
        records.append(record)
    summary = [{"gamma": r["grid_point"].get("gamma"),
                "inverse_gamma": (1.0 / r["grid_point"]["gamma"]
                                  if r["grid_point"].get("gamma") else None),
                "epsilon": r["grid_point"].get("epsilon"),
                "d_prop": r.get("intermediate", {}).get("d_prop"),
                "d_gse": r.get("intermediate", {}).get("d_gse"),
                "max_evolution_time": r.get("max_evolution_time")}
               for r in records]
    if output:
        serialization.write_record({"records": records, "summary": summary},
                                   output)
    for row in summary:
        print(f"[gspe] gamma={row['gamma']} eps={row['epsilon']} "
              f"max_time={row['max_evolution_time']}", file=sys.stderr)
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="gspe")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one configured estimation")
    p_run.add_argument("config")
    p_sweep = sub.add_parser("sweep", help="run a parameter grid")
    p_sweep.add_argument("config")
    p_fc = sub.add_parser("fourier-check",
                          help="dump (x, H(x), F(x)) for a built approximant")
    p_fc.add_argument("--delta", type=float, required=True)
    p_fc.add_argument("--epsilon", type=float, required=True)
    p_fc.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    try:
        if args.command == "fourier-check":
            record = run_fourier_check(args.delta, args.epsilon, args.out)
            print(f"[gspe] d={record['d']} sup_error={record['sup_error']:.3e}",
                  file=sys.stderr)
            return 0
        config = serialization.load_json(args.config)
        if args.command == "run":
            run(config)
        else:
            sweep(config)
        return 0
    except ConfigError as exc:
        print(f"[gspe] config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pipeline failures get a distinct exit code
        print(f"[gspe] pipeline error ({type(exc).__name__}): {exc}",
              file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
