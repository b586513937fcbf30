"""The exact-moment tables an instance keeps from its last estimate
(:func:`gspe.hadamard.oracle_tables`): what forces a rebuild, what a hit
returns, and how many tables stay alive."""
import json
import weakref

import numpy as np
import pytest

from gspe import (EstimationConfig, build_operator, diagonalize, embed_block,
                  estimate_gsprop_block, estimate_gsprop_general, hadamard)
from gspe.applications import estimate_1rdm_entry
from gspe.hadamard import (block_norm_table, expectation_table_1d,
                           expectation_table_2d, expectation_table_O,
                           oracle_tables)
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
    """Counts the phase blocks built, keeps a weak reference to every
    two-time table built and, at each table build, how many of the earlier
    ones were still alive."""
    seen = {"phase_blocks": 0, "tables": [], "alive_at_build": []}
    phase_block, table_2d = hadamard.phase_block, hadamard.expectation_table_2d

    def counted_phase_block(*args, **kwargs):
        seen["phase_blocks"] += 1
        return phase_block(*args, **kwargs)

    def tracked_table(*args, **kwargs):
        seen["alive_at_build"].append(_alive(seen["tables"]))
        table = table_2d(*args, **kwargs)
        seen["tables"].append(weakref.ref(table))
        return table

    monkeypatch.setattr(hadamard, "phase_block", counted_phase_block)
    monkeypatch.setattr(hadamard, "expectation_table_2d", tracked_table)
    return seen


@pytest.mark.parametrize("kind", hadamard.TABLE_KINDS)
def test_oracle_tables_equal_stand_alone_tables(rng, kind):
    """Built or kept, the tables are bit-identical to stand-alone ones."""
    s = _instance()
    phi0 = _start(s, rng)
    o_mat = random_hermitian(rng, 4) if kind == "block" else random_unitary(rng, 4)
    d, d_gse = 7, 11
    weighted = (expectation_table_O(s, phi0, o_mat, d) if kind == "one-time"
                else expectation_table_2d(s, phi0, o_mat, d))
    for _ in range(2):  # a build, then a hit
        (tables,) = oracle_tables(s, phi0, [o_mat], d, d_gse=d_gse, kind=kind)
        assert np.array_equal(tables.gse, expectation_table_1d(s, phi0, d_gse))
        assert np.array_equal(tables.overlap, expectation_table_1d(s, phi0, d))
        assert np.array_equal(tables.weighted, weighted)
        if kind == "block":
            assert np.array_equal(tables.norms, block_norm_table(s, phi0, o_mat, d))
        else:
            assert tables.norms is None


def test_any_change_of_the_key_forces_a_rebuild(builds, rng):
    """A new seed is a hit; phi0 changed in place, another observable of the
    same shape (signed permutation or dense) and a changed epsilon (so a
    changed degree) each rebuild.  A hit builds no phase block either."""
    s = _instance()
    phi0 = _start(s, rng)
    o_x = kron_word("XI")
    degrees = []

    def rebuilt(o_mat, seed, epsilon=0.1) -> bool:
        before = (len(builds["tables"]), builds["phase_blocks"])
        report = estimate_gsprop_general(s, phi0, o_mat, _cfg(seed, epsilon))
        degrees.append(report.intermediate["d_prop"])
        after = (len(builds["tables"]), builds["phase_blocks"])
        assert after[0] - before[0] == after[1] - before[1]
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


@pytest.mark.parametrize("pipeline", ["general", "block"])
def test_a_hit_gives_the_record_of_a_fresh_instance(builds, rng, pipeline):
    warm = _instance()
    phi0 = _start(warm, rng)
    o_mat = random_unitary(rng, 4) if pipeline == "general" else random_hermitian(rng, 4)

    def estimate(spectral, seed):
        if pipeline == "general":
            return estimate_gsprop_general(spectral, phi0, o_mat, _cfg(seed))
        return estimate_gsprop_block(spectral, phi0, embed_block(o_mat), _cfg(seed))

    estimate(warm, 0)
    for seed in (1, 2, 3):
        before = len(builds["tables"])
        hit = _record(estimate(warm, seed))
        assert len(builds["tables"]) == before
        assert hit == _record(estimate(_instance(), seed))


def test_an_instance_keeps_at_most_one_two_time_table(builds, rng):
    s = _instance()
    phi0 = _start(s, rng)
    for seed, word in enumerate(["XI", "IX", "XX", "XI"]):
        estimate_gsprop_general(s, phi0, kron_word(word), _cfg(seed))
        assert _alive(builds["tables"]) == 1
    estimate_gsprop_block(s, phi0, embed_block(random_hermitian(rng, 4)), _cfg(9))
    assert _alive(builds["tables"]) == 1
    assert builds["alive_at_build"] == [0] * 5
    del s
    assert _alive(builds["tables"]) == 0


@pytest.mark.parametrize("p, q, built", [(0, 1, [4, 4]), (0, 0, [1, 0])])
def test_1rdm_products_each_rebuild_with_no_table_alive(builds, rng, p, q, built):
    """Every Majorana product of an entry builds its own table from one Psi
    (one phase block per estimate), with none of the earlier tables alive;
    at a new seed each product rebuilds, as the instance keeps only the
    last.  The diagonal entry's two products are one Pauli string: one
    table, which the next estimate finds kept."""
    s = _instance(HOPPING2_TERMS)
    phi0 = _start(s, rng)
    for seed, count in enumerate(built):
        before = (len(builds["tables"]), builds["phase_blocks"])
        estimate_1rdm_entry(s, phi0, p, q, _cfg(seed, epsilon=0.05))
        assert len(builds["tables"]) - before[0] == count
        assert builds["phase_blocks"] - before[1] == min(count, 1)
    assert builds["alive_at_build"] == [0] * sum(built)
    assert _alive(builds["tables"]) == 1
