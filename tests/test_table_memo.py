"""The shot laws an instance keeps from its last estimate's exact-moment
tables (:func:`gspe.hadamard.oracle_tables`): what forces a rebuild, what a
hit returns, and how many laws and tables stay alive."""
import json
import weakref

import numpy as np
import pytest

from gspe import (EstimationConfig, build_operator, diagonalize, embed_block,
                  estimate_gsprop_block, estimate_gsprop_general, hadamard)
from gspe.applications import estimate_1rdm_entry
from gspe.hadamard import (block_norm_table, expectation_table_1d,
                           expectation_table_2d, expectation_table_O,
                           oracle_tables, outcome_law)
from gspe.serialization import json_safe
from gspe.spectral import mixed_with_noise

from conftest import (VARIANT2Q_TERMS, kron_word, random_hermitian,
                      random_unitary)

HOPPING2_TERMS = [(0.5, "XX"), (0.5, "YY"), (0.15, "ZI"), (-0.1, "IZ")]


def _instance(terms=VARIANT2Q_TERMS):
    """A fresh instance, so no other test's tables are kept on it."""
    return diagonalize(build_operator(terms))


def _start(spectral, rng):
    noise = rng.normal(size=spectral.dim) + 1j * rng.normal(size=spectral.dim)
    return mixed_with_noise(spectral.ground_state(), noise, 0.5)


def _cfg(seed, epsilon=0.1):
    return EstimationConfig(epsilon=epsilon, eta=0.4, nu=0.1, seed=seed)


def _record(report) -> bytes:
    return json.dumps(json_safe({
        "value": report.value, "shots": report.shots_used,
        "max_time": report.budget.max_time, "total_time": report.budget.total_time,
        "intermediate": report.intermediate}), sort_keys=True).encode()


def _alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


@pytest.fixture
def builds(monkeypatch):
    """Counts the phase blocks and the laws built, keeps a weak reference to
    every two-time table and every law of one built and, at each such build,
    how many of the earlier ones (tables or laws) were still alive."""
    seen = {"phase_blocks": 0, "tables": [], "alive_at_build": [],
            "laws": 0, "weighted_laws": [], "laws_alive_at_build": []}
    phase_block, table_2d = hadamard.phase_block, hadamard.expectation_table_2d
    law_of = hadamard.outcome_law

    def counted_phase_block(*args, **kwargs):
        seen["phase_blocks"] += 1
        return phase_block(*args, **kwargs)

    def tracked_table(*args, **kwargs):
        seen["alive_at_build"].append(_alive(seen["tables"]))
        table = table_2d(*args, **kwargs)
        seen["tables"].append(weakref.ref(table))
        return table

    def tracked_law(table, *args, **kwargs):
        seen["laws"] += 1
        if table.ndim == 2:
            seen["laws_alive_at_build"].append(_alive(seen["weighted_laws"]))
        law = law_of(table, *args, **kwargs)
        if table.ndim == 2:
            seen["weighted_laws"].append(weakref.ref(law))
        return law

    monkeypatch.setattr(hadamard, "phase_block", counted_phase_block)
    monkeypatch.setattr(hadamard, "expectation_table_2d", tracked_table)
    monkeypatch.setattr(hadamard, "outcome_law", tracked_law)
    return seen


@pytest.mark.parametrize("kind", hadamard.TABLE_KINDS)
def test_oracle_tables_equal_stand_alone_tables(rng, kind):
    """Built or kept, the laws are bit-identical to the laws of stand-alone
    tables (read with the block norms and alpha by the block kind)."""
    s = _instance()
    phi0 = _start(s, rng)
    o_mat = random_hermitian(rng, 4) if kind == "block" else random_unitary(rng, 4)
    d, d_gse = 7, 11
    alpha = 1.5 if kind == "block" else 1.0
    if kind == "one-time":
        weighted = outcome_law(expectation_table_O(s, phi0, o_mat, d))
    else:
        norms = block_norm_table(s, phi0, o_mat, d) if kind == "block" else None
        weighted = outcome_law(expectation_table_2d(s, phi0, o_mat, d), norms, alpha)
    one_time = [outcome_law(expectation_table_1d(s, phi0, degree))
                for degree in (d_gse, d)]
    for _ in range(2):  # a build, then a hit
        (laws,) = oracle_tables(s, phi0, [o_mat], d, d_gse=d_gse, kind=kind,
                                alpha=alpha)
        assert np.array_equal(laws.gse, one_time[0])
        assert np.array_equal(laws.overlap, one_time[1])
        assert laws.weighted.shape == weighted.shape
        assert laws.weighted.tobytes() == weighted.tobytes()


def test_any_change_of_the_key_forces_a_rebuild(builds, rng):
    """A new seed is a hit; phi0 changed in place, another observable of the
    same shape (signed permutation or dense) and a changed epsilon (so a
    changed degree) each rebuild.  A hit builds no phase block and no law
    either; a rebuild builds one law per table (GSE, overlap, weighted)."""
    s = _instance()
    phi0 = _start(s, rng)
    o_x = kron_word("XI")
    degrees = []

    def rebuilt(o_mat, seed, epsilon=0.1) -> bool:
        before = (len(builds["tables"]), builds["phase_blocks"], builds["laws"])
        report = estimate_gsprop_general(s, phi0, o_mat, _cfg(seed, epsilon))
        degrees.append(report.intermediate["d_prop"])
        after = (len(builds["tables"]), builds["phase_blocks"], builds["laws"])
        assert after[0] - before[0] == after[1] - before[1]
        assert after[2] - before[2] == 3 * (after[0] - before[0])
        return after[0] > before[0]

    assert rebuilt(o_x, 0)
    assert not rebuilt(o_x, 1)
    assert rebuilt(kron_word("IX"), 2)
    assert rebuilt(random_unitary(rng, 4), 3)
    assert rebuilt(o_x, 4)
    assert rebuilt(o_x, 5, epsilon=0.05)
    assert degrees[-1] != degrees[0]
    assert not rebuilt(o_x, 6, epsilon=0.05)
    phi0 *= np.exp(0.3j)  # the same array, other bytes
    assert rebuilt(o_x, 7, epsilon=0.05)
    assert not rebuilt(o_x, 8, epsilon=0.05)


@pytest.mark.parametrize("pipeline", ["general", "block", "block-alpha"])
def test_a_hit_gives_the_record_of_a_fresh_instance(builds, rng, pipeline):
    """An estimate on a warm instance gives the record of a fresh one.  With
    "block-alpha" the warm instance last ran the block pipeline at
    alpha = 1.5, with the same O, phi0 and degrees, and now runs it at
    alpha = 2: alpha is part of the key, so the first such estimate
    rebuilds, and the later ones hit."""
    warm = _instance()
    phi0 = _start(warm, rng)
    o_mat = random_unitary(rng, 4) if pipeline == "general" else random_hermitian(rng, 4)

    def estimate(spectral, seed, alpha=2.0):
        if pipeline == "general":
            return estimate_gsprop_general(spectral, phi0, o_mat, _cfg(seed))
        if pipeline == "block":
            alpha = None
        return estimate_gsprop_block(spectral, phi0, embed_block(o_mat, alpha),
                                     _cfg(seed))

    estimate(warm, 0, alpha=1.5)
    for seed in (1, 2, 3):
        before = len(builds["tables"]), builds["laws"]
        hit = _record(estimate(warm, seed))
        rebuilt = pipeline == "block-alpha" and seed == 1
        assert len(builds["tables"]) == before[0] + rebuilt
        assert builds["laws"] == before[1] + 3 * rebuilt
        assert hit == _record(estimate(_instance(), seed))


def test_an_instance_keeps_at_most_one_two_time_table(builds, rng):
    """An instance keeps one weighted law and no table: the law of each
    two-time table is built with no earlier one alive, and freed with the
    instance."""
    s = _instance()
    phi0 = _start(s, rng)
    for seed, word in enumerate(["XI", "IX", "XX", "XI"]):
        estimate_gsprop_general(s, phi0, kron_word(word), _cfg(seed))
        assert _alive(builds["weighted_laws"]) == 1
        assert _alive(builds["tables"]) == 0
    estimate_gsprop_block(s, phi0, embed_block(random_hermitian(rng, 4)), _cfg(9))
    assert _alive(builds["weighted_laws"]) == 1
    assert _alive(builds["tables"]) == 0
    assert builds["alive_at_build"] == [0] * 5
    assert builds["laws_alive_at_build"] == [0] * 5
    del s
    assert _alive(builds["weighted_laws"]) == 0


@pytest.mark.parametrize("p, q, built", [(0, 1, [4, 4]), (0, 0, [1, 0])])
def test_1rdm_products_each_rebuild_with_no_table_alive(builds, rng, p, q, built):
    """Every Majorana product of an entry builds its own table and law from
    one Psi (one phase block per estimate), with none of the earlier tables
    or weighted laws alive; at a new seed each product rebuilds, as the
    instance keeps only the last law.  The diagonal entry's two products are
    one Pauli string: one law, which the next estimate finds kept."""
    s = _instance(HOPPING2_TERMS)
    phi0 = _start(s, rng)
    for seed, count in enumerate(built):
        before = (len(builds["tables"]), builds["phase_blocks"])
        estimate_1rdm_entry(s, phi0, p, q, _cfg(seed, epsilon=0.05))
        assert len(builds["tables"]) - before[0] == count
        assert builds["phase_blocks"] - before[1] == min(count, 1)
    assert builds["alive_at_build"] == [0] * sum(built)
    assert builds["laws_alive_at_build"] == [0] * sum(built)
    assert _alive(builds["tables"]) == 0
    assert _alive(builds["weighted_laws"]) == 1
    del s
    assert _alive(builds["weighted_laws"]) == 0
