"""Deterministic expansion of a master seed into per-stage random streams.

A stage stream is keyed by ``(master_seed, stage_code, index)`` through
``numpy.random.SeedSequence``, so runs are reproducible and stages are
statistically independent.  The stage codes below are part of the persisted
result contract; do not renumber them.
"""
from __future__ import annotations

import numpy as np

STAGE_CODES = {
    "gse": 1,
    "overlap": 2,
    "weighted": 3,
    "state-prep": 4,
    "sweep-point": 5,
    "generic": 6,
}


def stage_sequence(master_seed: int, stage: str,
                   index: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(master_seed),
                                  spawn_key=(STAGE_CODES[stage], int(index)))


def stage_rng(master_seed: int, stage: str, index: int = 0) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(stage_sequence(master_seed, stage, index)))
