"""The fold oracle: barriers 0..k fold back into the live state at k.

A barrier journals only the rows appended since the previous barrier
plus the small state.  After every commit, folding the store's barriers
``0..k`` must give exactly what a from-scratch encode of the live
runtime gives at ``k``: the whole report partial (every day's rows) and
every small-state entry.  A sharded resume whose workers committed
different latest barriers must leave the store byte-identical to an
uninterrupted campaign's — the replica's committed-row cursor advances
over barriers its journal already holds, and nothing is re-appended.
"""

import pytest

from repro.checkpoint import CheckpointStore, Replica, canonical_json
from repro.checkpoint.serde import (
    fold_snapshots,
    report_partial_to_dict,
    restore_report_partial,
    serialize_runtime,
)
from repro.core.study import StudyConfig, StudyReport
from repro.errors import SimulatedCrash
from repro.faults.crash import CrashPlan
from repro.scenario import Scenario
from repro.shard import resume_sharded_study, run_sharded_study
from repro.shard.runner import shard_directory

from ..test_golden_digests import store_digest

POPULATION = 400
SEED = 2018
CONFIG = StudyConfig(warmup_days=8, study_days=8)

SCENARIOS = {
    "off": Scenario(),
    "hostile": Scenario("attack-collateral", "surge", "campaign"),
}


def fold_store(store, barrier):
    records = store.barriers()[: barrier + 1]
    return fold_snapshots(
        [store.load_snapshot(record) for record in records],
        [record["lengths"] for record in records],
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fold_equals_live_state_after_every_commit(name, tmp_path):
    replica = Replica(
        population=POPULATION,
        seed=SEED,
        config=CONFIG,
        scenario=SCENARIOS[name],
        checkpoint_dir=tmp_path / "store",
    )
    study, runtime = replica.study, replica.runtime
    folds = 0
    while True:
        barrier = replica.commit()
        folded = fold_store(replica.store, barrier)
        live = serialize_runtime(study, runtime)
        assert canonical_json(folded["report"]) == canonical_json(
            report_partial_to_dict(runtime.report)
        )
        assert set(folded) == set(live)
        for key in live:
            assert canonical_json(folded[key]) == canonical_json(live[key]), key
        folds += 1
        if runtime.finished:
            break
        study.run_day(runtime)
    assert folds == CONFIG.study_days + 1

    # The rows decode back (through the replica's name table) to values
    # that re-encode to the same bytes.
    decoded = StudyReport(
        config=CONFIG,
        population_size=POPULATION,
        scale_factor=runtime.report.scale_factor,
    )
    restore_report_partial(decoded, folded["report"], replica.names)
    assert canonical_json(report_partial_to_dict(decoded)) == canonical_json(
        folded["report"]
    )


def test_sharded_resume_from_uneven_barriers_rewrites_nothing(tmp_path):
    inputs = dict(population=POPULATION, seed=SEED, config=CONFIG)
    run_sharded_study(
        shard_count=2, checkpoint_dir=tmp_path / "reference", **inputs
    )
    crashed = tmp_path / "crashed"
    # Inline workers commit in shard order: shard 0 commits barrier 4
    # and crashes before shard 1 reaches it.
    with pytest.raises(SimulatedCrash):
        run_sharded_study(
            shard_count=2,
            checkpoint_dir=crashed,
            crash_plan=CrashPlan(at_barrier=4, mode="after-commit"),
            **inputs,
        )
    latest = [
        CheckpointStore.open(shard_directory(crashed, index, 2)).latest()["barrier"]
        for index in range(2)
    ]
    assert latest == [4, 3]
    resume_sharded_study(crashed, **inputs)
    assert store_digest(crashed) == store_digest(tmp_path / "reference")
