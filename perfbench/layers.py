"""Layer spans and counts, recorded from outside the ``gspe`` package.

A :class:`Tracer` wraps public functions of the ``gspe`` modules and rebinds
every name that refers to them (``from .fourier import build_fourier_approx``
leaves a second reference in ``estimators`` and ``applications``, and the
package ``__init__`` re-exports most of them), so a call made through any
import path is seen.  Spans are kept in memory; self time is a span's
duration minus the time its wrapped children cover.

This module imports nothing heavy, so a traced child can time
``import gspe.cli`` (numpy included) as the ``cli.import`` span.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import Counter

MODULES = ("pauli", "spectral", "fourier", "hadamard", "estimators",
           "applications", "serialization", "cli")


def _count_build(counts, result):
    counts["fourier.build_calls"] += 1
    counts["fourier.degree_sum"] += result.d


def _count_diagonalize(counts, result):
    counts["spectral.diagonalize_calls"] += 1


def _count_table(counts, result):
    counts["estimators.table_entries"] += result.size


def _count_j(counts, result):
    counts["estimators.j_drawn"] += result.size


def _count_outcomes(counts, result):
    counts["hadamard.outcomes_drawn"] += result.size


# (module, public name, span name, counter).  The span name plus "_s" is the
# per-layer self-time metric.
WRAPPED = (
    ("pauli", "PauliOperator.matrix", "pauli.matrix", None),
    ("spectral", "diagonalize", "spectral.diagonalize", _count_diagonalize),
    ("fourier", "build_fourier_approx", "fourier.build", _count_build),
    ("fourier", "degree_for", "fourier.degree_search", None),
    ("estimators", "expectation_table_1d", "estimators.tables", _count_table),
    ("estimators", "expectation_table_O", "estimators.tables", _count_table),
    ("estimators", "expectation_table_2d", "estimators.tables", _count_table),
    ("estimators", "block_norm_table", "estimators.tables", _count_table),
    ("estimators", "sample_j_batch", "estimators.sample_j", _count_j),
    ("hadamard", "draw_xy_pm1", "hadamard.draw", _count_outcomes),
    ("hadamard", "draw_block_xy", "hadamard.draw", _count_outcomes),
    ("estimators", "invert_cdf", "estimators.invert_cdf", None),
    ("estimators", "median_of_means", "estimators.mom", None),
    ("estimators", "g_estimator", "estimators.g_estimator", None),
    ("estimators", "estimate_gse", "estimators.pipeline_self", None),
    ("estimators", "estimate_overlap", "estimators.pipeline_self", None),
    ("estimators", "estimate_gsprop_commutative", "estimators.pipeline_self", None),
    ("estimators", "estimate_gsprop_general", "estimators.pipeline_self", None),
    ("estimators", "estimate_gsprop_block", "estimators.pipeline_self", None),
    ("applications", "qlss_estimate", "estimators.pipeline_self", None),
    ("applications", "estimate_1rdm_entry", "estimators.pipeline_self", None),
    ("applications", "prepare_initial_state", "applications.prep", None),
    ("applications", "build_gap_amplified", "applications.prep", None),
    ("applications", "assemble_observable", "applications.prep", None),
    ("serialization", "write_record", "serialization.write", None),
    ("cli", "main", "cli.self", None),
)

SPAN_NAMES = tuple(dict.fromkeys(["cli.startup", "cli.import"]
                                 + [w[2] for w in WRAPPED] + ["cli.exit"]))
COUNT_NAMES = ("fourier.build_calls", "fourier.degree_sum",
               "spectral.diagonalize_calls", "estimators.table_entries",
               "estimators.j_drawn", "hadamard.outcomes_drawn")


class Tracer:
    """Spans (name, operation id, parent, start, end) and counts in memory."""

    def __init__(self, op: int = 0):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = op
        self._open: list[int] = []
        self._rebound: list[tuple] = []
        self.originals: dict = {}

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.op, parent, time.perf_counter(), None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][4] = time.perf_counter()

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                counter(self.counts, result)
            return result
        return traced

    def install(self) -> None:
        """Rebind every wrapped public name in every gspe module holding it."""
        modules = [importlib.import_module(f"gspe.{m}") for m in MODULES]
        holders = [sys.modules["gspe"]] + modules
        for module, attr, name, counter in WRAPPED:
            owner = importlib.import_module(f"gspe.{module}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self.originals.setdefault(f"{module}.{attr}", original)
            wrapped = self.wrap(name, original, counter)
            targets = [(owner, leaf)] if path else [
                (holder, key) for holder in holders
                for key, value in list(vars(holder).items()) if value is original]
            for target, key in targets:
                setattr(target, key, wrapped)
                self._rebound.append((target, key, original))

    def uninstall(self) -> None:
        for target, key, original in reversed(self._rebound):
            setattr(target, key, original)
        self._rebound.clear()

    def cache_info(self) -> tuple[int, int]:
        """(hits, misses) of the Fourier build cache, or (0, 0) without one."""
        fourier = importlib.import_module("gspe.fourier")
        target = self.originals.get("fourier.build_fourier_approx",
                                    fourier.build_fourier_approx)
        info = getattr(target, "cache_info", None)
        if info is None:
            return 0, 0
        stats = info()
        return stats.hits, stats.misses


def self_times(spans) -> dict:
    """{op: Counter(span name -> self seconds)}; the key ``None`` holds the
    time the op's top-level spans cover."""
    child = [0.0] * len(spans)
    for name, op, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict = {}
    for index, (name, op, parent, start, end) in enumerate(spans):
        per_op = out.setdefault(op, Counter())
        per_op[name] += (end - start) - child[index]
        if parent < 0:
            per_op[None] += end - start
    return out
