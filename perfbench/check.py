"""Consistency checks on one result record, independent of how it was made.

A record is the JSON object ``gspe run`` writes (one entry of the
``records`` list for ``gspe sweep``).  :func:`check_record` returns the list
of problems found; an empty list means the record is consistent.
"""
from __future__ import annotations

import math

REL_TOL = 1e-9


def as_complex(value) -> complex:
    """Records store complex numbers as ``[re, im]`` pairs."""
    if isinstance(value, (list, tuple)):
        return complex(float(value[0]), float(value[1]))
    return complex(float(value))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def check_record(record: dict, *, weighted_k: int | None = None) -> list[str]:
    """Problems with ``record``: a non-finite estimate, a missing oracle value
    or ε echo, an ``error`` that does not equal ``|estimate - exact|``, a shot
    count that disagrees with the stage schedules in ``intermediate``, or an
    evolution-time budget whose largest single time exceeds its total.

    ``weighted_k`` is the pinned group size of the weighted stage, when the
    config fixes one; otherwise that stage only has to be whole groups.
    """
    problems = []
    try:
        estimate = as_complex(record["estimate"])
        shots = record["shots"]
        max_time = float(record["max_evolution_time"])
        total_time = float(record["total_evolution_time"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"malformed record ({exc!r})"]
    if not (math.isfinite(estimate.real) and math.isfinite(estimate.imag)):
        problems.append(f"estimate {estimate} is not finite")
    if not isinstance(record.get("config", {}).get("epsilon"), (int, float)):
        problems.append("record echoes no config.epsilon")
    if "exact" not in record:
        problems.append("record has no oracle value")
    else:
        error = abs(estimate - as_complex(record["exact"]))
        if not _close(error, float(record.get("error", math.nan))):
            problems.append(f"error {record.get('error')} != |estimate - exact| "
                            f"= {error}")
    if not isinstance(shots, int) or shots <= 0:
        problems.append(f"shots {shots!r} is not a positive integer")
        shots = 0
    inter = record.get("intermediate", {})
    staged = 0
    if "n_s" in inter and "n_b" in inter:
        staged = inter["n_s"] * inter["n_b"]
        if record.get("mode") == "gse" and shots != staged:
            problems.append(f"shots {shots} != n_s*n_b = {staged}")
    if "n_g" in inter and "k_overlap" in inter:
        n_g = inter["n_g"]
        weighted = shots - staged - n_g * inter["k_overlap"]
        if weighted <= 0 or weighted % n_g:
            problems.append(f"shots {shots} - n_s*n_b - n_g*k_overlap = "
                            f"{weighted} is not whole groups of n_g = {n_g}")
        elif weighted_k is not None and weighted != n_g * weighted_k:
            problems.append(f"weighted stage has {weighted} shots, schedule "
                            f"says n_g*k = {n_g * weighted_k}")
    if not (0.0 < max_time <= total_time and math.isfinite(total_time)):
        problems.append(f"evolution times max={max_time} total={total_time} "
                        "violate 0 < max <= total")
    return problems
