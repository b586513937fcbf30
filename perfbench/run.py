"""End-to-end and per-layer benchmark of the gspe estimator stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads, metrics and the layer map are
described in README.md next to this file.  One process sends one operation
at a time (a closed loop with one client).  Each run sets up several times
and reports the median set-up time, then runs operations until ``--seconds``
have passed.  Operation 1 repeats operation 0's seed and must reproduce its
record byte for byte.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` odd operations run traced and the per-layer metrics come
from them.  Every record is checked (``check.py``); records and traces go to
``.perfbench_work/`` under the working directory, which is removed at exit.
The last line of standard output is the JSON result.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from check import check_record
from layers import COUNT_NAMES, SPAN_NAMES, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

CHILD_TIMEOUT_S = 150.0
MIN_OPS = 2
TRACE_POOL = 20000  # extra (J, Z) pool `gspe run` draws for its CDF trace
TAIL_BEYOND = 10

END_TO_END = {  # name -> unit
    "setup_s": "s", "run_p50_s": "s", "run_tail_s": "s", "shots_per_s": "1/s",
    "peak_rss_mb": "MB", "shots_per_run": "count", "max_evo_time": "1/E",
    "total_evo_time": "1/E", "within_eps_frac": "ratio"}
SETUP_LAYERS = ("spectral.diagonalize", "pauli.matrix", "fourier.build",
                "fourier.degree_search")


@dataclass
class Op:
    """Outcome of one operation: one CLI invocation or one estimate."""

    wall: float
    rss_mb: float = 0.0
    shots: int = 0
    max_time: float = 0.0
    total_time: float = 0.0
    misses: int = 0
    estimates: int = 0
    problems: list = field(default_factory=list)
    blob: bytes = b""
    layers: Counter | None = None


def summarize_records(op: Op, records: list, weighted_k=None) -> None:
    """Check each record and fold its shots, times and oracle error in."""
    for record in records:
        problems = check_record(record, weighted_k=weighted_k)
        op.problems += problems
        op.estimates += 1
        if problems:
            continue
        op.shots += record["shots"]
        op.max_time = max(op.max_time, float(record["max_evolution_time"]))
        op.total_time += float(record["total_evolution_time"])
        if float(record["error"]) > float(record["config"]["epsilon"]):
            op.misses += 1


def cross_check(op: Op, records: list, has_trace: bool) -> None:
    """Counts seen by the wrappers must match what the records report."""
    layers = op.layers
    extra = layers["hadamard.outcomes_drawn"] - op.shots
    if extra not in ((0, TRACE_POOL) if has_trace else (0,)):
        op.problems.append(f"outcomes drawn {layers['hadamard.outcomes_drawn']} "
                           f"!= shots {op.shots} (+ trace pool)")
    degrees = [r["intermediate"][key] for r in records
               for key in ("d_gse", "d_prop") if key in r.get("intermediate", {})]
    trace_builds = layers["fourier.build_calls"] - len(degrees)
    trace_degree = records[0]["intermediate"].get("d_gse", 0) if has_trace else 0
    if (trace_builds not in ((0, 1) if has_trace else (0,))
            or layers["fourier.degree_sum"] != sum(degrees) + trace_builds * trace_degree):
        op.problems.append(f"Fourier builds {layers['fourier.build_calls']} "
                           f"(degree sum {layers['fourier.degree_sum']}) do not "
                           f"match the record degrees {degrees}")


def layer_values(spans, counts, cache, wall: float) -> Counter:
    per_op = next(iter(self_times(spans).values()), Counter())
    out = Counter({f"{name}_s": per_op[name] for name in SPAN_NAMES})
    out.update({name: counts.get(name, 0) for name in COUNT_NAMES})
    out["cache.hits"], out["cache.misses"] = cache
    out["bench.unattributed_s"] = wall - per_op[None]
    out["bench.traced_op_s"] = wall
    return out


# --- workloads ------------------------------------------------------------------

class CliWorkload:
    """A shipped config, run as a fresh ``gspe`` child process per operation.

    Set-up makes the working directory, writes the config and checks in a
    child that ``gspe`` imports from this checkout's ``src``."""

    setup_repeats = 7

    def __init__(self, name: str, command: str, config: str, seed: int):
        self.command = command
        self.config = json.loads((ROOT / "configs" / config).read_text())
        self.nu = float(self.config.get("nu", 0.1))
        self.dir = WORK / f"{name}-{seed}"
        self.outputs = [self.dir / self.config["output"]]
        if self.config.get("cdf_trace"):
            self.outputs.append(self.dir / self.config["cdf_trace"])

    def _env(self, seed=None) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        if seed is not None:
            env["GSPE_SEED"] = str(seed)
        return env

    def setup(self, tracer=None) -> None:
        """``tracer`` is unused: set-up calls no gspe function in process."""
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "config.json").write_text(json.dumps(self.config))
        found = subprocess.run(
            [sys.executable, "-c", "import gspe.cli; print(gspe.cli.__file__)"],
            env=self._env(), capture_output=True, text=True, check=True,
            timeout=CHILD_TIMEOUT_S).stdout.strip()
        require_checkout_source(found)

    def op(self, index: int, seed: int, traced: bool) -> Op:
        for path in self.outputs:
            path.unlink(missing_ok=True)
        spans_path = self.dir / "spans.json"
        args = [self.command, str(self.dir / "config.json")]
        env = self._env(seed)
        start = time.perf_counter()
        argv = ([sys.executable, str(HERE / "child.py"), str(spans_path),
                 str(index), repr(start)]
                if traced else [sys.executable, "-m", "gspe.cli"]) + args
        wall, code, rss_mb = spawn(argv, self.dir, env, start)
        op = Op(wall=wall, rss_mb=rss_mb)
        if code != 0:
            err = (self.dir / "stderr.txt").read_text(errors="replace")[-500:]
            op.problems.append(f"exit code {code}: {err}")
            return op
        try:
            op.blob = b"".join(path.read_bytes() for path in self.outputs)
            payload = json.loads(self.outputs[0].read_bytes())
            records = payload["records"] if self.command == "sweep" else [payload]
        except (OSError, ValueError, KeyError) as exc:
            op.problems.append(f"unreadable output ({exc!r})")
            return op
        summarize_records(op, records,
                          (self.config.get("shot_overrides") or {}).get("k"))
        if traced:
            data = json.loads(spans_path.read_text())
            require_checkout_source(data["gspe"])
            spans = data["spans"]
            # from the child's last span to its reaping: span dump, teardown
            spans.append(["cli.exit", index, -1, max(span[4] for span in spans),
                          start + wall])
            op.layers = layer_values(spans, data["counts"], data["cache"], wall)
            cross_check(op, records, bool(self.config.get("cdf_trace")))
        return op

    def peak_rss_mb(self, ops) -> float:
        return statistics.median(op.rss_mb for op in ops)


class EnsembleWorkload:
    """Library traffic: one 10-qubit TFIM, diagonalized once; each operation
    is one ``estimate_gsprop_general`` call at the next seed."""

    N_QUBITS = 10
    EPSILON, ETA = 0.1, 0.4
    nu = 0.1
    setup_repeats = 3

    def __init__(self, seed: int):
        self.seed = seed
        import numpy as np
        from gspe import estimators, fourier, pauli, serialization, spectral
        self.np, self.estimators, self.fourier = np, estimators, fourier
        self.pauli, self.serialization, self.spectral = pauli, serialization, spectral

    def _word(self, letters: dict) -> str:
        return "".join(letters.get(q, "I") for q in range(self.N_QUBITS))

    def setup(self, tracer=None) -> None:
        # each set-up starts from the cold caches a fresh process would have
        for cached in (self.fourier.build_fourier_approx, self.fourier.degree_for):
            getattr(cached, "cache_clear", lambda: None)()
        if tracer is not None:
            tracer.install()
        try:
            n = self.N_QUBITS
            terms = ([(-0.5, self._word({q: "Z", q + 1: "Z"})) for q in range(n - 1)]
                     + [(-1.0, self._word({q: "X"})) for q in range(n)]
                     + [(-0.1, self._word({0: "Z"}))])
            hamiltonian = self.pauli.build_operator(terms)
            self.spectral_data = self.spectral.diagonalize(hamiltonian)
            rng = self.np.random.default_rng(self.seed)
            noise = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
            self.phi0 = self.spectral.mixed_with_noise(
                self.spectral_data.ground_state(), noise, 0.5)
            self.observable = self.pauli.build_operator(
                [(1.0, self._word({0: "X"}))]).matrix()
            psi0 = self.spectral_data.ground_state()
            self.exact = float((psi0.conj() @ self.observable @ psi0).real)
            self._estimate(self.seed + 1)
        finally:
            if tracer is not None:
                tracer.uninstall()

    def _estimate(self, seed: int) -> dict:
        cfg = self.estimators.EstimationConfig(
            epsilon=self.EPSILON, eta=self.ETA, nu=self.nu, seed=seed)
        report = self.estimators.estimate_gsprop_general(
            self.spectral_data, self.phi0, self.observable, cfg)
        return {"mode": "gsprop-general", "seed": seed,
                "config": {"epsilon": self.EPSILON, "eta": self.ETA, "nu": self.nu},
                "estimate": report.value, "shots": report.shots_used,
                "max_evolution_time": report.budget.max_time,
                "total_evolution_time": report.budget.total_time,
                "intermediate": report.intermediate, "exact": self.exact,
                "error": abs(complex(report.value) - self.exact)}

    def op(self, index: int, seed: int, traced: bool) -> Op:
        tracer = Tracer(index) if traced else None
        if tracer is not None:
            tracer.install()
            hits0, misses0 = tracer.cache_info()
        start = time.perf_counter()
        try:
            record = self._estimate(seed)
        except Exception as exc:  # a failed estimate counts as a failed op
            return Op(wall=time.perf_counter() - start,
                      problems=[f"{type(exc).__name__}: {exc}"])
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        record = self.serialization.json_safe(record)
        op = Op(wall=wall, blob=json.dumps(record, sort_keys=True).encode())
        summarize_records(op, [record])
        if tracer is not None:
            hits, misses = tracer.cache_info()
            op.layers = layer_values(tracer.spans, tracer.counts,
                                     (hits - hits0, misses - misses0), wall)
            cross_check(op, [record], False)
        return op

    def peak_rss_mb(self, ops) -> float:
        """The process peak: set-up and every operation ran in it."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {
    "tfim3-gse": lambda seed: CliWorkload("tfim3-gse", "run", "tfim3-gse.json", seed),
    "qlss-kappa4": lambda seed: CliWorkload("qlss-kappa4", "run", "qlss-kappa4.json", seed),
    "sweep-gamma": lambda seed: CliWorkload("sweep-gamma", "sweep", "sweep-gamma.json", seed),
    "ensemble-10q": EnsembleWorkload,
}


# --- process and environment helpers ----------------------------------------------

def spawn(argv, cwd: Path, env: dict, start: float):
    """Run a child to completion; returns (wall seconds since ``start``, exit
    code, peak RSS MB)."""
    with open(cwd / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def require_checkout_source(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"gspe imported from {path}, not from {SRC}")


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, if one is loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def provenance(seed: int, ops: int, tail_pct: int) -> dict:
    import numpy as np
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() \
        if (ROOT / ".git").exists() and shutil.which("git") else ""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
            "numpy": np.__version__, "python": sys.version.split()[0],
            "git_commit": commit or None, "src_sha256": digest.hexdigest(),
            "workload_seed": seed, "operations": ops,
            "run_tail_percentile": tail_pct}


# --- statistics -------------------------------------------------------------------

def tail(values):
    """(percentile, value): the highest whole percentile with at least
    TAIL_BEYOND operations above it (nearest-rank), or the median when there
    are too few operations for that."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 49, -1):
        rank = math.ceil(pct * n / 100)
        if n - rank >= TAIL_BEYOND:
            return pct, ordered[rank - 1]
    return 50, statistics.median(ordered)


def end_to_end(work, setups, ops, estimates, misses) -> dict:
    walls = [op.wall for op in ops]
    return {
        "setup_s": statistics.median(setups),
        "run_p50_s": statistics.median(walls),
        "run_tail_s": tail(walls)[1],
        "shots_per_s": sum(op.shots for op in ops) / sum(walls),
        "peak_rss_mb": work.peak_rss_mb(ops),
        "shots_per_run": statistics.median(op.shots for op in ops),
        "max_evo_time": statistics.median(op.max_time for op in ops),
        "total_evo_time": statistics.median(op.total_time for op in ops),
        "within_eps_frac": 1.0 - misses / max(1, estimates),
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_ratio", "_frac")) else "count"


def per_layer(traced, untraced, setup_tracers) -> dict:
    n = max(1, len(traced))
    sums = Counter()
    for op in traced:
        sums.update(op.layers)
    out = {f"{name}_s": sums[f"{name}_s"] / n for name in SPAN_NAMES}
    out.update({name: sums[name] / n for name in COUNT_NAMES})
    lookups = sums["cache.hits"] + sums["cache.misses"]
    out["fourier.build_hit_ratio"] = sums["cache.hits"] / lookups if lookups else 0.0
    outcomes = sums["hadamard.outcomes_drawn"]
    out["hadamard.useful_ratio"] = (sum(op.shots for op in traced) / outcomes
                                    if outcomes else 0.0)
    out["bench.unattributed_s"] = sums["bench.unattributed_s"] / n
    out["bench.traced_op_s"] = sums["bench.traced_op_s"] / n
    out["bench.trace_overhead_frac"] = (
        statistics.median(op.wall for op in traced)
        / statistics.median(op.wall for op in untraced)
        if traced and untraced else 1.0)
    setup_self = [self_times(t.spans).get(0, Counter()) for t in setup_tracers]
    for name in SETUP_LAYERS:
        out[f"setup.{name}_s"] = (statistics.median(s[name] for s in setup_self)
                                  if setup_self else 0.0)
    return out


# --- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "gspe" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no gspe sources under {ROOT}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gspe
    require_checkout_source(gspe.__file__)

    traced_mode = bool(args.trace)
    work = WORKLOADS[args.workload](args.seed)
    setups, setup_tracers = [], []
    try:
        for _ in range(work.setup_repeats):
            tracer = Tracer() if traced_mode else None
            start = time.perf_counter()
            work.setup(tracer)
            setups.append(time.perf_counter() - start)
            setup_tracers += [tracer] if tracer else []

        seeds = random.Random(args.seed)
        first_seed = seeds.randrange(2 ** 31)
        ops = []
        deadline = time.perf_counter() + args.seconds
        while len(ops) < MIN_OPS or time.perf_counter() < deadline:
            index = len(ops)
            seed = first_seed if index <= 1 else seeds.randrange(2 ** 31)
            ops.append(work.op(index, seed, traced_mode and index % 2 == 1))
        if ops[1].blob != ops[0].blob or not ops[0].blob:
            ops[1].problems.append("rerun of the same (config, seed) is not "
                                   "byte-identical")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    failed = [op for op in ops if op.problems]
    estimates = sum(op.estimates for op in ops)
    misses = sum(op.misses for op in ops)
    tail_pct = tail([op.wall for op in ops])[0]
    traced = [op for op in ops if op.layers is not None]
    untraced = [op for op in ops if op.layers is None]
    if traced_mode:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in per_layer(traced, untraced,
                                                setup_tracers).items()}
    else:
        values = end_to_end(work, setups, ops, estimates, misses)
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in values.items()}
    report = {"workload": args.workload, "trace": args.trace,
              "provenance": provenance(args.seed, len(ops), tail_pct),
              "fail_frac": len(failed) / len(ops),
              "miss_frac": misses / max(1, estimates),
              "estimates": estimates, "setup_runs_s": setups,
              "op_walls_s": [round(op.wall, 4) for op in ops],
              "problems": [p for op in failed for p in op.problems][:10]}
    print(json.dumps({"report": report}))
    correct = not failed and misses <= work.nu * estimates
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
