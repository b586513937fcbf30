import csv
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from gspe import applications, cli
from gspe.estimators import acdf_exact
from gspe.fourier import build_fourier_approx
from gspe.serialization import (ConfigError, load_json, parse_linear_system,
                                parse_operator, parse_synthetic, write_record)

from conftest import TFIM3_TERMS

BUNDLE = pathlib.Path(__file__).resolve().parents[1] / "configs"


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
    spectral, phi0 = cli._load_instance(config, cli._resolve_seed(config))
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


def test_sweep_env_seed_is_the_master_seed(monkeypatch):
    """GSPE_SEED replaces a sweep's master seed; each grid point runs on, and
    reports, the seed derived from it."""
    monkeypatch.setenv("GSPE_SEED", "3")
    under_env = cli.sweep(dict(_SWEEP, seed=7))
    monkeypatch.delenv("GSPE_SEED")
    reference = cli.sweep(dict(_SWEEP, seed=3))
    assert len(under_env) == len(reference) == 3
    for got, want in zip(under_env, reference):
        assert got == want
        assert got["seed"] == got["config"]["seed"]


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


@pytest.mark.parametrize("initial_state,shot_overrides,code", [
    ({"type": "basis", "index": 8}, None, cli.EXIT_CONFIG),
    ({"type": "basis", "index": -1}, None, cli.EXIT_CONFIG),
    ({"type": "basis", "index": 1.5}, None, cli.EXIT_CONFIG),
    ({"type": "amplitudes", "re": [1.0, 0.0]}, None, cli.EXIT_CONFIG),
    ({"type": "amplitudes", "re": [1.0] + [0.0] * 7, "im": [0.0]}, None,
     cli.EXIT_CONFIG),
    ({"type": "amplitudes", "re": [0.0] * 8}, None, cli.EXIT_CONFIG),
    ({"type": "overlaps", "p": [0.5, 0.5]}, None, cli.EXIT_CONFIG),
    ({"type": "overlaps", "p": [1.5, -0.5] + [0.0] * 6}, None, cli.EXIT_CONFIG),
    ({"type": "plus"}, {"n_s": 0}, cli.EXIT_PIPELINE),
    ({"type": "plus"}, {"n_b": 0}, cli.EXIT_PIPELINE),
    ({"type": "plus"}, {"k": 0}, cli.EXIT_PIPELINE),
    ({"type": "plus"}, {"n_g": -3}, cli.EXIT_PIPELINE),
])
def test_exit_codes_for_bad_states_and_overrides(tmp_path, initial_state,
                                                 shot_overrides, code):
    """An initial state that does not fit the 3-qubit instance or is no state
    at all is a config error; a shot override that is not a positive integer fails the
    pipeline's precondition before any work."""
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "mode": "gse", "instance": _tfim_instance(),
        "initial_state": initial_state, "shot_overrides": shot_overrides,
        "epsilon": 0.05, "eta": 0.5, "nu": 0.1}))
    assert cli.main(["run", str(path)]) == code


def _block_config(**extra):
    return {"mode": "gsprop-block",
            "instance": {"type": "pauli", "n": 2,
                         "terms": [{"coeff": 1.0, "word": "ZZ"},
                                   {"coeff": 0.4, "word": "XI"},
                                   {"coeff": 0.2, "word": "ZI"}]},
            "initial_state": {"type": "ground_mixed", "overlap": 0.6},
            "observable": {"n": 2, "terms": [{"coeff": 0.6, "word": "ZI"},
                                             {"coeff": 0.3, "word": "XX"}]},
            "epsilon": 0.1, "eta": 0.5, "nu": 0.1, "seed": 3, **extra}


def _qlss_config(**qlss):
    config = load_json(str(BUNDLE / "qlss-kappa4.json"))
    config["qlss"].update(qlss)
    del config["output"]
    return config


def _ground_mixed(overlap):
    return {"type": "ground_mixed", "overlap": overlap}


# name -> (config, the field its config error names)
BAD_NUMBER_CASES = {
    "alpha-0": (_block_config(alpha=0), "alpha"),
    "alpha-negative": (_block_config(alpha=-1.5), "alpha"),
    "alpha-string": (_block_config(alpha="abc"), "alpha"),
    "alpha-inf": (_block_config(alpha=math.inf), "alpha"),
    "alpha-nan": (_block_config(alpha=math.nan), "alpha"),
    "alpha-bool": (_block_config(alpha=True), "alpha"),
    "qlss-alpha-0": (_qlss_config(alpha=0), "qlss.alpha"),
    "qlss-alpha-string": (_qlss_config(alpha="abc"), "qlss.alpha"),
    "qlss-alpha-inf": (_qlss_config(alpha=math.inf), "qlss.alpha"),
    "overlap-above-1": (_block_config(initial_state=_ground_mixed(1.5)),
                        "initial_state.overlap"),
    "overlap-negative": (_block_config(initial_state=_ground_mixed(-0.2)),
                         "initial_state.overlap"),
    "overlap-string": (_block_config(initial_state=_ground_mixed("half")),
                       "initial_state.overlap"),
    "qlss-overlap-above-1": (_qlss_config(overlap=1.5), "qlss.overlap"),
    "qlss-overlap-negative": (_qlss_config(overlap=-0.2), "qlss.overlap"),
    "qlss-overlap-null": (_qlss_config(overlap=None), "qlss.overlap"),
}


@pytest.mark.parametrize("case", list(BAD_NUMBER_CASES))
def test_bad_alpha_and_overlap_are_config_errors(tmp_path, capsys, case):
    config, field = BAD_NUMBER_CASES[case]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path)]) == cli.EXIT_CONFIG
    assert f"config error: {field} must be" in capsys.readouterr().err


def _shipped(name):
    config = load_json(str(BUNDLE / f"{name}.json"))
    for key in ("output", "cdf_trace"):
        config.pop(key, None)
    return config


def _with(config, path, value):
    """A copy of ``config`` with the field at the dotted ``path`` set."""
    config = json.loads(json.dumps(config))
    *parents, leaf = path.split(".")
    node = config
    for key in parents:
        node = node[key]
    node[leaf] = value
    return config


_RDM = {"mode": "rdm",
        "instance": {"type": "pauli", "n": 2,
                     "terms": [{"coeff": 0.5, "word": "XX"},
                               {"coeff": 0.5, "word": "YY"},
                               {"coeff": 0.15, "word": "ZI"},
                               {"coeff": -0.1, "word": "IZ"}]},
        "initial_state": {"type": "ground_mixed", "overlap": 0.6},
        "rdm": {"p": 0, "q": 1},
        "epsilon": 0.05, "eta": 0.5, "nu": 0.1, "seed": 4}
_FOURIER = {"mode": "fourier-check", "fourier": {"delta": 0.2, "epsilon": 0.01}}
_GSE, _QLSS, _SWEEP = (_shipped(name)
                       for name in ("tfim3-gse", "qlss-kappa4", "sweep-gamma"))

# name -> (command, config, GSPE_SEED, exit code, the field a config error names)
CONFIG_FIELD_CASES = {
    "epsilon-string": ("run", _with(_GSE, "epsilon", "abc"), None,
                       cli.EXIT_CONFIG, "epsilon"),
    "eta-null": ("run", _with(_GSE, "eta", None), None, cli.EXIT_CONFIG, "eta"),
    "nu-string": ("run", _with(_GSE, "nu", "x"), None, cli.EXIT_CONFIG, "nu"),
    "gamma-override-string": ("run", _with(_GSE, "gamma_override", "x"), None,
                              cli.EXIT_CONFIG, "gamma_override"),
    "seed-string": ("run", _with(_GSE, "seed", "x"), None, cli.EXIT_CONFIG, "seed"),
    "seed-negative": ("run", _with(_GSE, "seed", -1), None, cli.EXIT_CONFIG,
                      "seed"),
    "seed-fraction": ("run", _with(_GSE, "seed", 1.7), None, cli.EXIT_CONFIG,
                      "seed"),
    "env-seed-negative": ("run", _GSE, "-1", cli.EXIT_CONFIG, "GSPE_SEED"),
    "initial-state-list": ("run", _with(_GSE, "initial_state", [1]), None,
                           cli.EXIT_CONFIG, "initial_state"),
    "shot-overrides-list": ("run", _with(_GSE, "shot_overrides", [1]), None,
                            cli.EXIT_CONFIG, "shot_overrides"),
    "instance-list": ("run", _with(_GSE, "instance", [1]), None,
                      cli.EXIT_CONFIG, "instance"),
    "overlaps-p-string": ("run", _with(_GSE, "initial_state",
                                       {"type": "overlaps",
                                        "p": ["a"] + [0.125] * 7}), None,
                          cli.EXIT_CONFIG, "initial_state.p"),
    "qlss-number": ("run", _with(_QLSS, "qlss", 5), None, cli.EXIT_CONFIG, "qlss"),
    "qlss-eta-string": ("run", _with(_QLSS, "eta", "x"), None, cli.EXIT_CONFIG,
                        "eta"),
    "qlss-epsilon-string": ("run", _with(_QLSS, "epsilon", "x"), None,
                            cli.EXIT_CONFIG, "epsilon"),
    "qlss-kappa-string": ("run", _with(_QLSS, "instance.kappa", "x"), None,
                          cli.EXIT_CONFIG, "instance.kappa"),
    "rdm-list": ("run", _with(_RDM, "rdm", [0, 1]), None, cli.EXIT_CONFIG, "rdm"),
    "rdm-p-string": ("run", _with(_RDM, "rdm.p", "a"), None, cli.EXIT_CONFIG,
                     "rdm.p"),
    "rdm-p-fraction": ("run", _with(_RDM, "rdm.p", 0.5), None, cli.EXIT_CONFIG,
                       "rdm.p"),
    "fourier-list": ("run", _with(_FOURIER, "fourier", [1]), None,
                     cli.EXIT_CONFIG, "fourier"),
    "fourier-delta-string": ("run", _with(_FOURIER, "fourier.delta", "x"), None,
                             cli.EXIT_CONFIG, "fourier.delta"),
    "synthetic-eigenvalue-string": (
        "sweep", _with(_SWEEP, "instance.eigenvalues", [0.0, "gamma", "x", 1.0]),
        None, cli.EXIT_CONFIG, "instance.eigenvalues"),
    "synthetic-eigenvalues-number": (
        "sweep", _with(_SWEEP, "instance.eigenvalues", 5), None, cli.EXIT_CONFIG,
        "instance.eigenvalues"),
    "synthetic-overlaps-string": (
        "sweep", _with(_SWEEP, "instance.overlaps", "x"), None, cli.EXIT_CONFIG,
        "instance.overlaps"),
    "sweep-epsilon-string": ("sweep", _with(_SWEEP, "sweep.epsilon", ["x"]), None,
                             cli.EXIT_CONFIG, "sweep.epsilon"),
    # file names: a list or a float, so a failing check opens no descriptor
    "output-list": ("run", _with(_GSE, "output", ["out.json"]), None,
                    cli.EXIT_CONFIG, "output"),
    "sweep-output-float": ("sweep", _with(_SWEEP, "output", 7.5), None,
                           cli.EXIT_CONFIG, "output"),
    "cdf-trace-float": ("run", _with(_GSE, "cdf_trace", 2.5), None,
                        cli.EXIT_CONFIG, "cdf_trace"),
    "fourier-out-list": ("run", _with(_FOURIER, "fourier.out", ["f.csv"]), None,
                         cli.EXIT_CONFIG, "fourier.out"),
    "qlss-b-string-entry": ("run", _with(_QLSS, "instance.b",
                                         [["a", 0.0]] + [[0.5, 0.0]] * 3), None,
                            cli.EXIT_CONFIG, "instance.b"),
    "qlss-b-number": ("run", _with(_QLSS, "instance.b", 5), None, cli.EXIT_CONFIG,
                      "instance.b"),
    "qlss-a-not-square-with-b": ("run", _with(_QLSS, "instance.A", [[1.0]]), None,
                                 cli.EXIT_CONFIG, "instance.A"),
    # a number of the right type out of range fails the pipeline's precondition
    "epsilon-above-1": ("run", _with(_GSE, "epsilon", 1.5), None,
                        cli.EXIT_PIPELINE, None),
    "shot-override-0": ("run", _with(_GSE, "shot_overrides", {"n_s": 0}), None,
                        cli.EXIT_PIPELINE, None),
    "rdm-p-out-of-range": ("run", _with(_RDM, "rdm.p", 2), None,
                           cli.EXIT_PIPELINE, None),
    "fourier-delta-out-of-range": ("run", _with(_FOURIER, "fourier.delta", 0.9),
                                   None, cli.EXIT_PIPELINE, None),
}


@pytest.mark.parametrize("case", list(CONFIG_FIELD_CASES))
def test_config_field_types(tmp_path, capsys, monkeypatch, case):
    """A field of the wrong JSON type is a config error (exit 2) naming the
    field; a range error stays a pipeline precondition (exit 3)."""
    command, config, env_seed, code, field = CONFIG_FIELD_CASES[case]
    monkeypatch.chdir(tmp_path)
    if env_seed is None:
        monkeypatch.delenv("GSPE_SEED", raising=False)
    else:
        monkeypatch.setenv("GSPE_SEED", env_seed)
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    assert cli.main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert (f"config error: {field} " if field else "pipeline error") in err


_SINGULAR_A = [[[v if i == j else 0.0, 0.0] for j in range(4)]  # diag(1, 0.5, 0.25, 0)
               for i, v in enumerate([1.0, 0.5, 0.25, 0.0])]
SINGULAR_CASES = {
    "singular-no-kappa": {"A": _SINGULAR_A},
    "singular-kappa-null": {"A": _SINGULAR_A, "kappa": None},
    "singular-kappa-given": {"A": _SINGULAR_A, "kappa": 4.0},
    "kappa-0": {"kappa": 0},
    "kappa-below-1": {"kappa": 0.5},
}


@pytest.mark.parametrize("case", list(SINGULAR_CASES))
def test_singular_system_or_bad_kappa_is_a_precondition(tmp_path, capsys,
                                                        monkeypatch, case):
    """A singular A, or a kappa below 1, fails as a pipeline precondition
    before any eigensolve and without a warning; a null kappa is absent."""
    monkeypatch.setattr(applications, "diagonalize", _no_eigensolve)
    config = json.loads(json.dumps(_QLSS))
    config["instance"].pop("kappa")
    config["instance"].update(SINGULAR_CASES[case])
    path = tmp_path / "c.json"
    path.write_text(json.dumps(config))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["run", str(path)]) == cli.EXIT_PIPELINE
    assert "pipeline error (PreconditionError)" in capsys.readouterr().err


def _no_eigensolve(*args, **kwargs):
    raise AssertionError("eigensolve reached")


@pytest.mark.parametrize("alpha", [None, 1.5])
def test_block_alpha_null_or_valid_runs(tmp_path, alpha):
    path = tmp_path / "c.json"
    output = tmp_path / "r.json"
    path.write_text(json.dumps(_block_config(alpha=alpha, output=str(output))))
    assert cli.main(["run", str(path)]) == 0
    assert load_json(str(output))["intermediate"]["alpha"] == (alpha or 1.0)


@pytest.mark.parametrize("overlap", [0, 1.0])
def test_overlap_ends_are_valid(overlap):
    config = _block_config(initial_state=_ground_mixed(overlap))
    spectral, phi0 = cli._load_instance(config, cli._resolve_seed(config))
    ground = abs(spectral.ground_state().conj() @ phi0) ** 2
    assert ground == pytest.approx(overlap, abs=1e-12)


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
    monkeypatch.chdir(tmp_path)
    gse_config = load_json(str(BUNDLE / "tfim3-gse.json"))
    record = cli.run(gse_config)
    assert record["error"] <= gse_config["epsilon"]
    sweep_config = load_json(str(BUNDLE / "sweep-gamma.json"))
    records = cli.sweep(sweep_config)
    assert len(records) == 3
    qlss_config = load_json(str(BUNDLE / "qlss-kappa4.json"))
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
