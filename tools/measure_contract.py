"""Measure the statistical contract of the property pipelines over many seeds.

    python3 tools/measure_contract.py [--seeds N] [--instance NAME ...] [--src DIR]

Each instance is built once, in process, and estimated at seeds 0 .. N-1.
After the first estimate, ensemble-10q, block-alpha1, rdm-0-0 and phase-x
find their shot laws kept and cost only sampling.  rdm-0-1 builds one phase
block and its four products' laws at every estimate, as each Majorana
product is its own key and the instance keeps only the last, and
qlss-kappa4 diagonalizes a fresh H'(1) at every call.  A miss is an estimate
whose |estimate - exact| exceeds epsilon.  For each instance one line
reports the shots per estimate (median, min and max), error / epsilon
(median, 95th percentile, max), the misses, and the two-sided 95%
Clopper-Pearson upper bound on the miss rate, set against the instance's
nu.  The exit code is 1 when any bound exceeds its nu.

Instances:
  ensemble-10q  the benchmark's 10-qubit TFIM, general pipeline (eps 0.1,
                eta 0.4, nu 0.1)
  qlss-kappa4   the shipped linear-system config, its oracle initial state at
                each seed
  block-alpha1  the acceptance suite's block-encoded instance (criterion 6)
                at alpha = 1 (eps 0.05, eta 0.4, nu 0.1)
  rdm-0-1       1RDM entry (0, 1) of a two-mode hopping model (eps 0.05,
                eta 0.5, nu 0.1): a complex target of four products
  rdm-0-0       1RDM entry (0, 0) of the same model: a real target of two
                products
  phase-x       the non-Hermitian unitary e^{i pi/4} X on the first qubit
                of criterion 6's 2-qubit Hamiltonian, general pipeline (eps
                0.1, eta 0.4, nu 0.1): a complex target

``--src`` names the source tree to import gspe from (default: this
checkout's ``src``), so two trees can be measured by the same script.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def cp_upper(misses: int, n: int, level: float = 0.95) -> float:
    """Upper end of the two-sided Clopper-Pearson interval for misses / n:
    the p at which P(Bin(n, p) <= misses) = (1 - level) / 2."""
    tail = (1.0 - level) / 2.0
    if misses >= n:
        return 1.0
    if misses == 0:
        return 1.0 - tail ** (1.0 / n)

    def cdf(p):
        return sum(math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                            - math.lgamma(n - i + 1) + i * math.log(p)
                            + (n - i) * math.log1p(-p)) for i in range(misses + 1))

    lo, hi = misses / n, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if cdf(mid) > tail else (lo, mid)
    return hi


# --- instances: each returns (nu, epsilon, estimate(seed) -> (value, exact, shots))

def _tfim10():
    import numpy as np
    from gspe import estimators, pauli, spectral
    n = 10

    def word(letters):
        return "".join(letters.get(q, "I") for q in range(n))

    terms = ([(-0.5, word({q: "Z", q + 1: "Z"})) for q in range(n - 1)]
             + [(-1.0, word({q: "X"})) for q in range(n)] + [(-0.1, word({0: "Z"}))])
    s = spectral.diagonalize(pauli.build_operator(terms))
    rng = np.random.default_rng(0)
    phi0 = spectral.mixed_with_noise(
        s.ground_state(), rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n), 0.5)
    o_mat = pauli.build_operator([(1.0, word({0: "X"}))]).matrix()
    psi0 = s.ground_state()
    exact = complex(psi0.conj() @ o_mat @ psi0)

    def estimate(seed):
        cfg = estimators.EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=seed)
        report = estimators.estimate_gsprop_general(s, phi0, o_mat, cfg)
        return report.value, exact, report.shots_used

    return 0.1, 0.1, estimate


def _qlss():
    from gspe import applications, serialization
    config = json.loads((ROOT / "configs" / "qlss-kappa4.json").read_text())
    inst = serialization.parse_linear_system(config["instance"])
    observable = serialization.parse_operator(config["observable"], "observable")
    epsilon, nu = config["epsilon"], config["nu"]

    def estimate(seed):
        report = applications.qlss_estimate(
            inst, observable, epsilon, nu, config["qlss"]["initial_state_mode"],
            overlap=config["qlss"]["overlap"], seed=seed)
        return report.value, report.intermediate["exact"], report.shots_used

    return nu, epsilon, estimate


def _block():
    import numpy as np
    from gspe import estimators, hadamard, pauli, spectral
    s = spectral.diagonalize(pauli.build_operator([(1.0, "ZZ"), (0.4, "XI"),
                                                   (0.2, "ZI")]))
    o_mat = 0.5 * (pauli.build_operator([(1.0, "ZI")]).matrix()
                   + pauli.build_operator([(1.0, "XX")]).matrix())
    psi0 = s.ground_state()
    exact = complex(psi0.conj() @ o_mat @ psi0)
    rng = np.random.default_rng(606)
    phi0 = spectral.mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4),
                                     0.5)
    block = hadamard.embed_block(o_mat, 1.0)

    def estimate(seed):
        cfg = estimators.EstimationConfig(epsilon=0.05, eta=0.4, nu=0.1, seed=seed)
        report = estimators.estimate_gsprop_block(s, phi0, block, cfg)
        return report.value, exact, report.shots_used

    return 0.1, 0.05, estimate


def _rdm(p: int, q: int):
    import numpy as np
    from gspe import applications, estimators, pauli, spectral
    s = spectral.diagonalize(pauli.build_operator(
        [(0.5, "XX"), (0.5, "YY"), (0.15, "ZI"), (-0.1, "IZ")]))
    rng = np.random.default_rng(0)
    phi0 = spectral.mixed_with_noise(s.ground_state(),
                                     rng.normal(size=4) + 1j * rng.normal(size=4), 0.6)
    exact = applications.exact_1rdm_entry(s, p, q, 2)

    def estimate(seed):
        cfg = estimators.EstimationConfig(epsilon=0.05, eta=0.5, nu=0.1, seed=seed)
        report = applications.estimate_1rdm_entry(s, phi0, p, q, cfg)
        return report.value, exact, report.shots_used

    return 0.1, 0.05, estimate


def _phase_x():
    import numpy as np
    from gspe import estimators, pauli, spectral
    s = spectral.diagonalize(pauli.build_operator([(1.0, "ZZ"), (0.4, "XI"),
                                                   (0.2, "ZI")]))
    o_mat = np.exp(0.25j * math.pi) * pauli.build_operator([(1.0, "XI")]).matrix()
    psi0 = s.ground_state()
    exact = complex(psi0.conj() @ o_mat @ psi0)
    rng = np.random.default_rng(707)
    phi0 = spectral.mixed_with_noise(psi0, rng.normal(size=4) + 1j * rng.normal(size=4),
                                     0.5)

    def estimate(seed):
        cfg = estimators.EstimationConfig(epsilon=0.1, eta=0.4, nu=0.1, seed=seed)
        report = estimators.estimate_gsprop_general(s, phi0, o_mat, cfg)
        return report.value, exact, report.shots_used

    return 0.1, 0.1, estimate


INSTANCES = {"ensemble-10q": _tfim10, "qlss-kappa4": _qlss,
             "block-alpha1": _block, "rdm-0-1": lambda: _rdm(0, 1),
             "rdm-0-0": lambda: _rdm(0, 0), "phase-x": _phase_x}


def measure(name: str, seeds: int) -> dict:
    import numpy as np
    nu, epsilon, estimate = INSTANCES[name]()
    start = time.perf_counter()
    ratios, shots = [], []
    for seed in range(seeds):
        value, exact, used = estimate(seed)
        ratios.append(abs(complex(value) - complex(exact)) / epsilon)
        shots.append(used)
    ratios = np.array(ratios)
    misses = int((ratios > 1.0).sum())
    return {"instance": name, "seeds": seeds, "nu": nu,
            "shots_median": float(np.median(shots)), "shots_min": min(shots),
            "shots_max": max(shots), "err_median": float(np.median(ratios)),
            "err_p95": float(np.quantile(ratios, 0.95)),
            "err_max": float(ratios.max()), "misses": misses,
            "cp95_upper": cp_upper(misses, seeds),
            "wall_s": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--seeds", type=int, default=1000)
    parser.add_argument("--instance", action="append", choices=list(INSTANCES))
    parser.add_argument("--src", default=str(ROOT / "src"))
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    sys.path.insert(0, args.src)
    print(f"{'instance':13s} {'seeds':>5s} {'shots median [min, max]':>31s} "
          f"{'err/eps med':>11s} {'p95':>6s} {'max':>6s} {'misses':>6s} "
          f"{'CP95 up':>7s} {'nu':>5s}  verdict", flush=True)
    held = True
    for name in args.instance or list(INSTANCES):
        row = measure(name, args.seeds)
        ok = row["cp95_upper"] <= row["nu"]
        held &= ok
        shots = (f"{row['shots_median']:.0f} [{row['shots_min']}, "
                 f"{row['shots_max']}]")
        print(f"{name:13s} {row['seeds']:5d} {shots:>31s} "
              f"{row['err_median']:11.3f} {row['err_p95']:6.3f} "
              f"{row['err_max']:6.3f} {row['misses']:6d} "
              f"{row['cp95_upper']:7.4f} {row['nu']:5.2f}  "
              f"{'holds' if ok else 'EXCEEDS nu'} ({row['wall_s']:.0f} s)", flush=True)
    return 0 if held else 1


if __name__ == "__main__":
    sys.exit(main())
