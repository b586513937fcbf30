"""Run the same gspe CLI configs on two source trees and compare the outputs.

    python3 tools/compare_records.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are the ``src`` directories of two checkouts.  Each
config runs as ``python -m gspe.cli`` with that tree first on PYTHONPATH, in
its own temporary directory.  The configs are the shipped ``tfim3-gse`` and
``qlss-kappa4`` at GSPE_SEED 0, 1 and 2, ``qlss-kappa4`` with the
``schedule`` initial state, the shipped ``sweep-gamma`` sweep as shipped and
at GSPE_SEED 3 (as the benchmark runs it), small general,
block (default alpha, alpha = 1.5, and ||O||_2 > 1 with the default
alpha = ||O||_2), commutative and 1RDM ((p, q) = (0, 1) and (0, 0)) configs,
a 10-qubit TFIM general config built like the benchmark's ``ensemble-10q``
(a real H, solved with a float64 eigenvector matrix) and a 3-qubit general
config whose H has a term with one Y (a complex H, solved in complex
arithmetic), all built below: 21 output files in all.  For every output
file it prints ``identical``, or the largest
relative and the largest absolute difference between the numbers at paths
both outputs have (a number that became exactly 0 reads 1 relative however
small it was, so the absolute one shows its size), the path of the first
field that differs, each path only one output has,
and whether ``shots`` and every schedule integer
(``d_gse``, ``d_prop``, ``n_s``, ``n_b``, ``n_g``, ``k_overlap``,
``k_weighted``) still match,
so a change of the random stream can show that only estimates and evolution
times moved; otherwise each schedule field that only one side has, and each
that changed, is named.  The exit code is 0 when every file is identical.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TFIM3 = {"type": "pauli", "n": 3,
         "terms": [{"coeff": -1.0, "word": "ZZI"}, {"coeff": -1.0, "word": "IZZ"},
                   {"coeff": -0.5, "word": "XII"}, {"coeff": -0.5, "word": "IXI"},
                   {"coeff": -0.5, "word": "IIX"}]}
HOPPING2 = {"type": "pauli", "n": 2,
            "terms": [{"coeff": 0.5, "word": "XX"}, {"coeff": 0.5, "word": "YY"},
                      {"coeff": 0.15, "word": "ZI"}, {"coeff": -0.1, "word": "IZ"}]}


def _observable(*terms) -> dict:
    return {"n": len(terms[0][1]),
            "terms": [{"coeff": c, "word": w} for c, w in terms]}


def _tfim3(mode: str, observable: dict, **extra) -> dict:
    return {"mode": mode, "instance": TFIM3,
            "initial_state": {"type": "ground_mixed", "overlap": 0.6},
            "observable": observable, "epsilon": 0.1, "eta": 0.5, "nu": 0.1,
            "seed": 5, **extra}


def _tfim10() -> dict:
    """The open-chain TFIM -0.5 ZZ - 1.0 X - 0.1 Z_0 on 10 qubits, X_0
    measured from a ground_mixed start at overlap 0.5, as ensemble-10q."""
    n = 10

    def word(letters: dict) -> str:
        return "".join(letters.get(q, "I") for q in range(n))

    terms = ([(-0.5, word({q: "Z", q + 1: "Z"})) for q in range(n - 1)]
             + [(-1.0, word({q: "X"})) for q in range(n)] + [(-0.1, word({0: "Z"}))])
    return {"mode": "gsprop-general",
            "instance": {"type": "pauli", "n": n,
                         "terms": [{"coeff": c, "word": w} for c, w in terms]},
            "initial_state": {"type": "ground_mixed", "overlap": 0.5},
            "observable": _observable((1.0, word({0: "X"}))),
            "epsilon": 0.1, "eta": 0.4, "nu": 0.1, "seed": 2}


def _rdm(p: int, q: int) -> dict:
    return {"mode": "rdm", "instance": HOPPING2,
            "initial_state": {"type": "ground_mixed", "overlap": 0.6},
            "rdm": {"p": p, "q": q}, "epsilon": 0.05, "eta": 0.5, "nu": 0.1,
            "seed": 4}


def cases():
    """(name, command, config, GSPE_SEED or None)."""
    for name in ("tfim3-gse", "qlss-kappa4"):
        config = json.loads((CONFIGS / f"{name}.json").read_text())
        for seed in (0, 1, 2):
            yield f"{name}@{seed}", "run", config, seed
    # the only CLI path through the schedule preparation
    qlss = json.loads((CONFIGS / "qlss-kappa4.json").read_text())
    yield "qlss-schedule", "run", dict(
        qlss, output="qlss-schedule-record.json",
        qlss=dict(qlss["qlss"], initial_state_mode="schedule")), None
    sweep = json.loads((CONFIGS / "sweep-gamma.json").read_text())
    yield "sweep-gamma", "sweep", sweep, None
    yield "sweep-gamma@3", "sweep", sweep, 3
    hermitian = _observable((0.6, "ZII"), (0.3, "XXI"))
    inline = {
        "general": _tfim3("gsprop-general", _observable((1.0, "XII"))),
        "block": _tfim3("gsprop-block", hermitian),
        "block-alpha1.5": _tfim3("gsprop-block", hermitian, alpha=1.5),
        "block-norm1.24": _tfim3("gsprop-block",
                                 _observable((1.2, "ZII"), (0.3, "XXI"))),
        "commutative": _tfim3("gsprop-commutative", _observable((1.0, "XXX"))),
        "rdm-0-1": _rdm(0, 1),
        "rdm-0-0": _rdm(0, 0),
        "general-10q": _tfim10(),
        "general-odd-y": dict(_tfim3("gsprop-general", _observable((1.0, "XII"))),
                              instance=dict(TFIM3, terms=TFIM3["terms"] + [
                                  {"coeff": 0.3, "word": "YZI"}])),
    }
    for name, config in inline.items():
        yield name, "run", dict(config, output=f"{name}-record.json"), None


def run(src: Path, command: str, config: dict, seed) -> dict:
    """{output file name: bytes} of one CLI run on the tree at ``src``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("GSPE_SEED", None)
    if seed is not None:
        env["GSPE_SEED"] = str(seed)
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "config.json"
        path.write_text(json.dumps(config))
        proc = subprocess.run([sys.executable, "-m", "gspe.cli", command, str(path)],
                              cwd=work, env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"{src}: exit code {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        names = [config["output"]] + ([config["cdf_trace"]]
                                      if config.get("cdf_trace") else [])
        return {name: (Path(work) / name).read_bytes() for name in names}


SCHEDULE = ("shots", "d_gse", "d_prop", "n_s", "n_b", "n_g", "k_overlap",
            "k_weighted")


def _leaves(blob: bytes, name: str) -> list:
    """(path, leaf) for every leaf of a JSON record, keys in sorted order, or
    every cell of a CSV table; numbers as numbers, other leaves as they are,
    so a changed structure shows as a changed path."""
    if name.endswith(".csv"):
        rows = csv.reader(io.StringIO(blob.decode()))
        return [(f"[{r}][{c}]", _leaf(cell)) for r, row in enumerate(rows)
                for c, cell in enumerate(row)]
    out = []

    def walk(node, path):
        if isinstance(node, dict):
            if not node:
                out.append((path, "{}"))
            for key in sorted(node):
                walk(node[key], f"{path}.{key}" if path else key)
        elif isinstance(node, list):
            if not node:
                out.append((path, "[]"))
            for index, item in enumerate(node):
                walk(item, f"{path}[{index}]")
        else:
            out.append((path, node))

    walk(json.loads(blob), "")
    return out


def _leaf(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def largest_difference(a: bytes, b: bytes, name: str, *,
                       absolute: bool = False) -> float:
    """Largest |x - y| / max(|x|, |y|), or |x - y| with ``absolute``, over
    the numbers at the paths both outputs have, the leaves paired by path;
    inf when a non-number at such a path differs.  Paths only one side has
    are :func:`unpaired_paths`."""
    right = dict(_leaves(b, name))
    worst = 0.0
    for path, x in _leaves(a, name):
        if path not in right:
            continue
        y = right[path]
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (x, y))
        if not numeric:
            if x != y:
                return math.inf
        elif x != y:
            scale = 1.0 if absolute else max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale)
    return worst


def unpaired_paths(a: bytes, b: bytes, name: str) -> list:
    """Each leaf path only one output has, named with the side that lacks
    it: the parent's in document order, then those only the change has."""
    before, after = (dict(_leaves(blob, name)) for blob in (a, b))
    return ([f"{path} missing in change" for path in before if path not in after]
            + [f"{path} missing in parent" for path in after if path not in before])


def first_difference(a: bytes, b: bytes, name: str) -> str | None:
    """Path of the first leaf, in document order, whose path or value
    differs; None when every leaf matches."""
    for (path, x), (other, y) in zip_longest(_leaves(a, name), _leaves(b, name),
                                             fillvalue=(None, None)):
        if (path, x) != (other, y):
            return path if path == other else f"{path} / {other}"
    return None


def schedule_verdict(a: bytes, b: bytes, name: str) -> str:
    """Whether shots and every schedule integer (SCHEDULE, wherever it sits
    in the record) match, the two records' fields paired by path: each
    changed field and each field missing on one side is named, the parent's
    in document order, then those only the change has."""
    before, after = ({path: leaf for path, leaf in _leaves(blob, name)
                      if path.rsplit(".", 1)[-1] in SCHEDULE} for blob in (a, b))
    if not before and not after:
        return "no schedule fields"
    notes = []
    for path in list(before) + [path for path in after if path not in before]:
        if path not in after:
            notes.append(f"{path} missing in change")
        elif path not in before:
            notes.append(f"{path} missing in parent")
        elif before[path] != after[path]:
            notes.append(f"{path} {before[path]} -> {after[path]}")
    return "shots and schedule match" if not notes else "schedule differs: " + "; ".join(notes)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    all_identical = True
    for name, command, config, seed in cases():
        before = run(parent, command, config, seed)
        after = run(change, command, config, seed)
        for output in before:
            if before[output] == after[output]:
                verdict = "identical"
            else:
                all_identical = False
                args = before[output], after[output], output
                unpaired = unpaired_paths(*args)
                verdict = (f"differs, largest relative difference "
                           f"{largest_difference(*args):.3e}, absolute "
                           f"{largest_difference(*args, absolute=True):.3e}, first at "
                           f"{first_difference(*args)}; {schedule_verdict(*args)}"
                           + (f"; unpaired: {', '.join(unpaired)}" if unpaired else ""))
            print(f"{name:18s} {output:28s} {verdict}", flush=True)
    return 0 if all_identical else 1


if __name__ == "__main__":
    sys.exit(main())
