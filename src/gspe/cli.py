"""Command-line harness: seeded, reproducible runs of every pipeline.

Commands:
    gspe run <config.json>                 one estimation run, persisted record
    gspe sweep <config.json>              grid over {gamma, epsilon, eta}
    gspe fourier-check --delta D --epsilon E --out F.csv

Exit codes: 0 success, 2 config/instance parse error, 3 pipeline failure.
The master seed comes from the config (default 0) and can be overridden with
the GSPE_SEED environment variable; it expands into per-stage streams via the
documented splitting in :mod:`gspe.seeding`.
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
from .serialization import ConfigError
from .spectral import diagonalize, exact_cdf, mixed_with_noise, normalized, overlaps

EXIT_CONFIG = 2
EXIT_PIPELINE = 3

MODES = ("gse", "gsprop-commutative", "gsprop-general", "gsprop-block",
         "qlss", "fourier-check", "rdm")


def _resolve_seed(config: dict) -> int:
    env = os.environ.get("GSPE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigError(f"GSPE_SEED={env!r} is not an integer") from exc
    return int(config.get("seed", 0))


def _load_instance(config: dict, gamma: float | None = None):
    """Returns (spectral, phi0, operator-ish) for Hamiltonian modes."""
    spec = config.get("instance")
    if spec is None:
        raise ConfigError("config: missing instance")
    if isinstance(spec, str):
        spec = serialization.load_json(spec)
    kind = spec.get("type", "pauli")
    if kind == "synthetic":
        operator, weights = serialization.parse_synthetic(spec, gamma)
        spectral = diagonalize(operator)
        phi0 = spectral.eigenvectors @ np.sqrt(weights).astype(complex)
        return spectral, phi0, operator
    if kind == "pauli":
        operator = serialization.parse_operator(spec, "instance")
        spectral = diagonalize(operator)
        phi0 = _initial_state(config, spectral)
        return spectral, phi0, operator
    raise ConfigError(f"instance: unknown type {kind!r}")


def _initial_state(config: dict, spectral):
    spec = config.get("initial_state", {"type": "plus"})
    kind = spec.get("type", "plus")
    dim = spectral.dim
    if kind == "plus":
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    if kind == "basis":
        state = np.zeros(dim, dtype=complex)
        state[int(spec.get("index", 0))] = 1.0
        return state
    if kind == "ground_mixed":
        overlap = float(spec.get("overlap", 0.5))
        rng = stage_rng(_resolve_seed(config), "state-prep")
        noise = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return mixed_with_noise(spectral.ground_state(), noise, overlap)
    if kind == "amplitudes":
        re = np.array(spec.get("re", []), dtype=float)
        im = np.array(spec.get("im", np.zeros_like(re)), dtype=float)
        return normalized(re + 1j * im)
    if kind == "overlaps":
        weights = np.array(spec.get("p", []), dtype=float)
        if weights.size != dim or abs(weights.sum() - 1.0) > 1e-9:
            raise ConfigError("initial_state: overlaps must sum to 1 and match "
                              "the instance dimension")
        return spectral.eigenvectors @ np.sqrt(weights).astype(complex)
    raise ConfigError(f"initial_state: unknown type {kind!r}")


def _estimation_config(config: dict, gamma_override=None) -> EstimationConfig:
    overrides = config.get("shot_overrides", {}) or {}
    try:
        return EstimationConfig(
            epsilon=float(config["epsilon"]), eta=float(config["eta"]),
            nu=float(config.get("nu", 0.1)), seed=_resolve_seed(config),
            gamma=gamma_override if gamma_override is not None
            else config.get("gamma_override"),
            n_s=overrides.get("n_s"), n_b=overrides.get("n_b"),
            n_g=overrides.get("n_g"), k=overrides.get("k"))
    except KeyError as exc:
        raise ConfigError(f"config: missing field {exc}") from exc


def _base_record(config: dict, mode: str) -> dict:
    return {"mode": mode, "config": config, "seed": _resolve_seed(config)}


def _finish_record(record: dict, report, exact=None) -> dict:
    value = report.value
    record.update({
        "estimate": value,
        "shots": report.shots_used,
        "max_evolution_time": report.budget.max_time,
        "total_evolution_time": report.budget.total_time,
        "intermediate": serialization.json_safe(report.intermediate),
    })
    if exact is not None:
        record["exact"] = exact
        record["error"] = abs(complex(value) - complex(exact))
    return record


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


def run_gse(config: dict, gamma: float | None = None) -> dict:
    spectral, phi0, _ = _load_instance(config, gamma)
    cfg = _estimation_config(config, gamma)
    report = estimators.estimate_gse(spectral, phi0, cfg)
    record = _base_record(config, "gse")
    trace = config.get("cdf_trace")
    if trace:
        _write_cdf_trace(trace, spectral, phi0, report)
        record["cdf_trace"] = trace
    return _finish_record(record, report, exact=float(spectral.eigenvalues[0]))


def _ground_expectation(spectral, o_mat) -> float:
    psi0 = spectral.ground_state()
    return float((psi0.conj() @ o_mat @ psi0).real)


def run_gsprop(config: dict, mode: str, gamma: float | None = None) -> dict:
    spectral, phi0, _ = _load_instance(config, gamma)
    cfg = _estimation_config(config, gamma)
    observable = serialization.parse_operator(config.get("observable") or {},
                                              "observable")
    o_mat = observable.matrix()
    if mode == "gsprop-commutative":
        report = estimators.estimate_gsprop_commutative(spectral, phi0, o_mat, cfg)
    elif mode == "gsprop-general":
        report = estimators.estimate_gsprop_general(spectral, phi0, o_mat, cfg)
    else:
        alpha = float(config.get("alpha") or
                      max(1.0, np.linalg.norm(o_mat, 2)))
        block = hadamard.embed_block(o_mat, alpha)
        report = estimators.estimate_gsprop_block(spectral, phi0, block, cfg)
    record = _base_record(config, mode)
    return _finish_record(record, report,
                          exact=_ground_expectation(spectral, o_mat))


def run_qlss(config: dict) -> dict:
    spec = config.get("instance")
    if isinstance(spec, str):
        spec = serialization.load_json(spec)
    if spec is None or spec.get("type") != "linear_system":
        raise ConfigError('qlss mode needs instance {"type": "linear_system", ...}')
    inst = serialization.parse_linear_system(spec)
    observable = serialization.parse_operator(config.get("observable") or {},
                                              "observable")
    qlss_opts = config.get("qlss", {}) or {}
    overrides = config.get("shot_overrides", {}) or {}
    report = applications.qlss_estimate(
        inst, observable, float(config["epsilon"]),
        float(config.get("nu", 0.1)),
        qlss_opts.get("initial_state_mode", "oracle"),
        overlap=float(qlss_opts.get("overlap", 0.6)),
        eta=config.get("eta"), alpha=qlss_opts.get("alpha"),
        seed=_resolve_seed(config),
        n_g=overrides.get("n_g"), k=overrides.get("k"))
    record = _base_record(config, "qlss")
    return _finish_record(record, report, exact=report.intermediate["exact"])


def run_rdm(config: dict) -> dict:
    spectral, phi0, _ = _load_instance(config)
    cfg = _estimation_config(config)
    rdm = config.get("rdm") or {}
    try:
        p, q = int(rdm["p"]), int(rdm["q"])
    except KeyError as exc:
        raise ConfigError(f"rdm mode needs field rdm.{exc.args[0]}") from exc
    n_modes = int(round(math.log2(spectral.dim)))
    report = applications.estimate_1rdm_entry(spectral, phi0, p, q, cfg)
    exact = applications.exact_1rdm_entry(spectral, p, q, n_modes)
    record = _base_record(config, "rdm")
    return _finish_record(record, report, exact=exact)


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


_RUNNERS = {
    "gse": run_gse,
    "gsprop-commutative": lambda c, g=None: run_gsprop(c, "gsprop-commutative", g),
    "gsprop-general": lambda c, g=None: run_gsprop(c, "gsprop-general", g),
    "gsprop-block": lambda c, g=None: run_gsprop(c, "gsprop-block", g),
}


def run(config: dict) -> dict:
    """Execute one configured estimation; returns the result record."""
    mode = config.get("mode")
    if mode not in MODES:
        raise ConfigError(f"config: mode must be one of {MODES}, got {mode!r}")
    start = time.monotonic()
    if mode == "qlss":
        record = run_qlss(config)
    elif mode == "rdm":
        record = run_rdm(config)
    elif mode == "fourier-check":
        fspec = config.get("fourier") or {}
        record = run_fourier_check(float(fspec.get("delta", 0.2)),
                                   float(fspec.get("epsilon", 0.01)),
                                   fspec.get("out"))
    else:
        record = _RUNNERS[mode](config)
    # wall time goes to stderr, not into the record: records must be
    # byte-identical across repeated runs of one (config, seed)
    print(f"[gspe] {mode} finished in {time.monotonic() - start:.2f}s",
          file=sys.stderr)
    output = config.get("output")
    if output:
        serialization.write_record(record, output)
    return record


def sweep(config: dict) -> list[dict]:
    """Grid runs over {gamma, epsilon, eta}; returns one record per point."""
    grid = config.get("sweep") or {}
    axes = [(key, list(grid[key])) for key in ("gamma", "epsilon", "eta")
            if key in grid and grid[key]]
    if not axes:
        raise ConfigError("sweep: empty grid (declare gamma/epsilon/eta lists)")
    base = {k: v for k, v in config.items() if k not in ("sweep", "output")}
    mode = base.get("mode")
    if mode not in _RUNNERS:
        raise ConfigError(f"sweep: mode must be one of {tuple(_RUNNERS)}, "
                          f"got {mode!r}")
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
        seq = stage_sequence(_resolve_seed(config), "sweep-point", index)
        point["seed"] = int(seq.generate_state(1)[0])
        record = _RUNNERS[mode](point, gamma)
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
    output = config.get("output")
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
