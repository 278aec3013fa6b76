"""Every fault profile either shards byte-identically or is refused.

A fault plan whose draws or counts follow the deliveries a worker makes
(probabilistic loss/SERVFAIL outside the retry budget, per-day rate
limits) would make each shard measure something the monolithic run
never saw.  The sharded plane must refuse such a profile before any
worker starts or any store is written; every other profile must merge
to the monolithic artifact byte for byte.  The shape is one where the
slice-dependent profiles were measured to diverge.
"""

import pytest

from repro.checkpoint import canonical_json, run_checkpointed_study, study_artifact
from repro.core.study import StudyConfig
from repro.errors import ShardError
from repro.faults import PROFILES
from repro.shard import run_sharded_study
from repro.shard.runner import ShardWorker

INPUTS = dict(
    population=400,
    seed=2018,
    config=StudyConfig(warmup_days=8, study_days=8),
)


@pytest.mark.parametrize("profile", sorted(PROFILES))
def test_sharded_equals_monolithic_or_is_refused_up_front(
    profile, tmp_path, monkeypatch
):
    started = []
    original_init = ShardWorker.__init__

    def counting_init(worker, spec):
        started.append(spec.shard_index)
        original_init(worker, spec)

    monkeypatch.setattr(ShardWorker, "__init__", counting_init)
    try:
        sharded = run_sharded_study(
            fault_profile=profile,
            shard_count=2,
            mode="inline",
            checkpoint_dir=tmp_path / "sharded",
            **INPUTS,
        )
    except ShardError as exc:
        assert "cannot be sharded" in str(exc)
        assert started == []
        assert not (tmp_path / "sharded").exists()
        return
    monolithic = run_checkpointed_study(
        tmp_path / "monolithic", fault_profile=profile, **INPUTS
    )
    assert canonical_json(study_artifact(sharded)) == canonical_json(
        study_artifact(monolithic)
    )


def test_slice_dependent_profiles_still_run_with_one_shard(tmp_path):
    report = run_sharded_study(
        fault_profile="rate-limited",
        shard_count=1,
        mode="inline",
        population=60,
        seed=5,
        config=StudyConfig(warmup_days=2, study_days=1),
    )
    assert report.population_size == 60
