import csv
import json
import math

import numpy as np
import pytest

from gspe import cli
from gspe.estimators import acdf_exact
from gspe.fourier import build_fourier_approx
from gspe.serialization import (ConfigError, load_json, parse_linear_system,
                                parse_operator, parse_synthetic, write_record)

from conftest import TFIM3_TERMS


def _tfim_instance():
    return {"type": "pauli", "n": 3,
            "terms": [{"coeff": c, "word": w} for c, w in TFIM3_TERMS]}


def _gse_config(tmp_path, seed=0):
    return {
        "mode": "gse",
        "instance": _tfim_instance(),
        "initial_state": {"type": "ground_mixed", "overlap": 0.5},
        "epsilon": 0.02, "eta": 0.5, "nu": 0.1, "seed": seed,
        "output": str(tmp_path / "out.json"),
    }


def test_run_is_deterministic(tmp_path):
    config = _gse_config(tmp_path)
    cli.run(config)
    first = (tmp_path / "out.json").read_bytes()
    cli.run(config)
    assert (tmp_path / "out.json").read_bytes() == first


def test_run_gse_reference_seed(tmp_path):
    config = _gse_config(tmp_path, seed=7)
    record = cli.run(config)
    assert record["error"] <= config["epsilon"]
    persisted = load_json(str(tmp_path / "out.json"))
    assert persisted["error"] == pytest.approx(record["error"])
    assert persisted["seed"] == 7
    assert "wall_time" not in persisted


def test_cdf_trace_emitted(tmp_path):
    config = _gse_config(tmp_path)
    config["cdf_trace"] = str(tmp_path / "trace.csv")
    record = cli.run(config)
    with open(config["cdf_trace"], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "C_exact", "C_estimated"]
    xs = np.array([float(r[0]) for r in rows[1:]])
    exact = np.array([float(r[1]) for r in rows[1:]])
    assert xs[0] == pytest.approx(-math.pi / 3)
    assert np.all(np.diff(exact) >= -1e-12)
    # C_estimated is the mean of G over the run's own GSE pool: unbiased for
    # the ACDF, with per-shot |G| = W * sqrt(2)
    estimated = np.array([float(r[2]) for r in rows[1:]])
    spectral, phi0, _ = cli._load_instance(config)
    approx = build_fourier_approx(spectral.tau * config["epsilon"],
                                  config["eta"] / 8.0)
    inter = record["intermediate"]
    assert approx.d == inter["d_gse"]
    bound = 5 * approx.total_weight * math.sqrt(2) \
        / math.sqrt(inter["n_s"] * inter["n_b"])
    acdf = acdf_exact(approx, spectral, phi0, xs).real
    assert np.all(np.abs(estimated - acdf) <= bound)


def test_fourier_check_record(tmp_path):
    out = tmp_path / "fc.csv"
    record = cli.run_fourier_check(0.2, 0.01, str(out))
    assert record["sup_error"] <= 0.01
    assert record["range"][0] >= -1e-9
    assert record["range"][1] <= 1.0 + 1e-9
    with open(out, newline="") as fh:
        header = next(csv.reader(fh))
    assert header == ["x", "heaviside", "F"]


def test_fourier_check_cli_exit_code(tmp_path, capsys):
    rc = cli.main(["fourier-check", "--delta", "0.2", "--epsilon", "0.01",
                   "--out", str(tmp_path / "f.csv")])
    assert rc == 0


def test_gsprop_commutative_mode(tmp_path):
    config = {
        "mode": "gsprop-commutative",
        "instance": {"type": "synthetic",
                     "eigenvalues": [0.0, 0.5, 0.8, 1.0],
                     "overlaps": [0.6, 0.2, 0.1, 0.1]},
        "observable": {"n": 2, "terms": [{"coeff": 1.0, "word": "ZZ"}]},
        "epsilon": 0.1, "eta": 0.5, "nu": 0.1, "seed": 1,
        "output": str(tmp_path / "prop.json"),
    }
    record = cli.run(config)
    assert record["error"] <= 0.1
    inter = record["intermediate"]
    assert inter["d_prop"] > 0
    # budget law: one-time circuits never exceed the largest Fourier degree
    bound = max(inter["d_gse"], inter["d_prop"]) * inter["tau"]
    assert record["max_evolution_time"] <= bound + 1e-9


def test_qlss_mode(tmp_path):
    def pairs(mat):
        return [[[float(v.real), float(v.imag)] for v in row] for row in mat]
    a = np.diag([1.0, 0.5, 1 / 3, 0.25]).astype(complex)
    config = {
        "mode": "qlss",
        "instance": {"type": "linear_system", "A": pairs(a),
                     "b": [[0.5, 0.0]] * 4, "kappa": 4.0},
        "observable": {"n": 2, "terms": [{"coeff": 1.0, "word": "ZI"}]},
        "epsilon": 0.05, "nu": 0.1, "seed": 0,
        "qlss": {"initial_state_mode": "oracle", "overlap": 0.6},
        "output": str(tmp_path / "qlss.json"),
    }
    record = cli.run(config)
    assert record["error"] <= 0.05


def test_rdm_mode(tmp_path):
    config = {
        "mode": "rdm",
        "instance": {"type": "pauli", "n": 2,
                     "terms": [{"coeff": 0.5, "word": "XX"},
                               {"coeff": 0.5, "word": "YY"},
                               {"coeff": 0.15, "word": "ZI"},
                               {"coeff": -0.1, "word": "IZ"}]},
        "initial_state": {"type": "ground_mixed", "overlap": 0.6},
        "rdm": {"p": 0, "q": 1},
        "epsilon": 0.05, "eta": 0.5, "nu": 0.1, "seed": 4,
        "output": str(tmp_path / "rdm.json"),
    }
    record = cli.run(config)
    assert record["error"] <= 0.05


def test_sweep_gamma_monotone(tmp_path):
    config = {
        "mode": "gsprop-commutative",
        "instance": {"type": "synthetic",
                     "eigenvalues": [0.0, "gamma", 0.8, 1.0],
                     "overlaps": [0.5, 0.2, 0.2, 0.1]},
        "observable": {"n": 2, "terms": [{"coeff": 1.0, "word": "ZZ"}]},
        "epsilon": 0.1, "eta": 0.4, "nu": 0.2, "seed": 7,
        "shot_overrides": {"n_s": 2000, "n_b": 11, "n_g": 9, "k": 4000},
        "sweep": {"gamma": [0.2, 0.4, 0.8]},
        "output": str(tmp_path / "sweep.json"),
    }
    records = cli.sweep(config)
    assert len(records) == 3
    ds = [r["intermediate"]["d_prop"] for r in records]
    assert ds[0] > ds[1] > ds[2]
    persisted = load_json(str(tmp_path / "sweep.json"))
    assert len(persisted["summary"]) == 3
    assert persisted["summary"][0]["inverse_gamma"] == pytest.approx(5.0)


def test_sweep_empty_grid_rejected(tmp_path):
    config = {"mode": "gse", "instance": _tfim_instance(),
              "epsilon": 0.05, "eta": 0.5, "sweep": {}}
    with pytest.raises(ConfigError):
        cli.sweep(config)


def test_env_seed_override(tmp_path, monkeypatch):
    config = _gse_config(tmp_path, seed=3)
    monkeypatch.setenv("GSPE_SEED", "11")
    record = cli.run(config)
    assert record["seed"] == 11


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", str(bad)]) == cli.EXIT_CONFIG
    missing_mode = tmp_path / "m.json"
    missing_mode.write_text(json.dumps({"instance": _tfim_instance()}))
    assert cli.main(["run", str(missing_mode)]) == cli.EXIT_CONFIG
    degenerate = tmp_path / "deg.json"
    degenerate.write_text(json.dumps({
        "mode": "gse",
        "instance": {"type": "pauli", "n": 2,
                     "terms": [{"coeff": 1.0, "word": "ZZ"},
                               {"coeff": 0.4, "word": "XI"}]},
        "epsilon": 0.05, "eta": 0.5, "nu": 0.1}))
    assert cli.main(["run", str(degenerate)]) == cli.EXIT_PIPELINE


def test_parse_errors_carry_field_context():
    with pytest.raises(ConfigError, match="observable"):
        parse_operator({"n": 2}, "observable")
    with pytest.raises(ConfigError, match="instance.A"):
        parse_linear_system({"A": [["bad"]], "b": [[1.0, 0.0]]})
    with pytest.raises(ConfigError, match="overlaps"):
        parse_synthetic({"eigenvalues": [0.0, 1.0]})
    with pytest.raises(ConfigError, match="gamma"):
        parse_synthetic({"eigenvalues": [0.0, "gamma"], "overlaps": [0.5, 0.5]})


def test_bundled_reference_configs(tmp_path, monkeypatch):
    """The shipped configs run end to end; the energy one lands within its
    declared epsilon for the bundled reference seed."""
    import pathlib
    bundle = pathlib.Path(__file__).resolve().parents[1] / "configs"
    monkeypatch.chdir(tmp_path)
    gse_config = load_json(str(bundle / "tfim3-gse.json"))
    record = cli.run(gse_config)
    assert record["error"] <= gse_config["epsilon"]
    sweep_config = load_json(str(bundle / "sweep-gamma.json"))
    records = cli.sweep(sweep_config)
    assert len(records) == 3
    qlss_config = load_json(str(bundle / "qlss-kappa4.json"))
    record = cli.run(qlss_config)
    assert record["error"] <= qlss_config["epsilon"]


def test_fourier_check_via_config(tmp_path):
    record = cli.run({"mode": "fourier-check",
                      "fourier": {"delta": 0.2, "epsilon": 0.01,
                                  "out": str(tmp_path / "f.csv")}})
    assert record["sup_error"] <= 0.01


def test_write_record_atomic_and_sorted(tmp_path):
    path = tmp_path / "rec.json"
    write_record({"b": 1, "a": complex(1, 2)}, str(path))
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text)["a"] == [1.0, 2.0]
