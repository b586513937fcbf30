"""The record check accepts consistent records and flags tampered ones."""
import copy

import pytest

from check import check_record

GSE = {
    "mode": "gse", "config": {"epsilon": 0.019}, "seed": 7,
    "estimate": -3.49, "exact": -3.5, "error": 0.01, "shots": 578897,
    "max_evolution_time": 230.5, "total_evolution_time": 1.0e7,
    "intermediate": {"n_s": 52627, "n_b": 11, "d_gse": 530},
}
PROPERTY = {
    "mode": "gsprop-commutative", "config": {"epsilon": 0.1}, "seed": 3,
    "estimate": [0.51, 0.02], "exact": 0.5, "error": abs(complex(0.01, 0.02)),
    "shots": 3000 * 11 + 9 * 6000 + 9 * 6000,
    "max_evolution_time": 40.0, "total_evolution_time": 9.0e5,
    "intermediate": {"n_s": 3000, "n_b": 11, "n_g": 9, "k_overlap": 6000,
                     "d_gse": 40, "d_prop": 60},
}


def tampered(record, path, value):
    out = copy.deepcopy(record)
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return out


def test_consistent_records_pass():
    assert check_record(GSE) == []
    assert check_record(PROPERTY, weighted_k=6000) == []
    assert check_record(PROPERTY) == []


@pytest.mark.parametrize("record, path, value", [
    (GSE, ("estimate",), -3.3),                       # error no longer matches
    (GSE, ("error",), 0.0),
    (GSE, ("estimate",), float("nan")),
    (GSE, ("shots",), 578898),                        # n_s * n_b disagrees
    (GSE, ("shots",), 0),
    (GSE, ("max_evolution_time",), 2.0e7),            # max above total
    (GSE, ("total_evolution_time",), 0.0),
    (GSE, ("intermediate", "n_b"), 12),
    (PROPERTY, ("estimate",), [0.51, 0.03]),
    (PROPERTY, ("shots",), 3000 * 11 + 9 * 6000 + 9 * 6000 + 1),
    (PROPERTY, ("shots",), 3000 * 11 + 9 * 6000),     # weighted stage missing
    (PROPERTY, ("intermediate", "k_overlap"), 6001),
    (PROPERTY, ("config",), {}),                      # no epsilon to judge by
])
def test_tampered_records_are_flagged(record, path, value):
    assert check_record(tampered(record, path, value), weighted_k=6000)


def test_pinned_weighted_schedule_is_enforced():
    record = tampered(PROPERTY, ("shots",), 3000 * 11 + 9 * 6000 + 9 * 5000)
    assert check_record(record) == []
    assert check_record(record, weighted_k=6000)


@pytest.mark.parametrize("key", ["shots", "estimate", "exact"])
def test_incomplete_record_is_flagged(key):
    record = copy.deepcopy(GSE)
    del record[key]
    assert check_record(record)
