"""Store identity refusals between the monolithic and sharded planes.

A worker's store holds one slice's measurements and a coordinator's
directory holds no measurements at all; resuming either as the other
would finalise a campaign over the wrong sites.  Each refusal fires
before any world is rebuilt.
"""

import pytest

from repro.checkpoint import resume_study, run_checkpointed_study
from repro.errors import CheckpointMismatchError, SimulatedCrash
from repro.faults.crash import CrashPlan
from repro.shard import resume_sharded_study, run_sharded_study, shard_directory

from .conftest import POPULATION, SEED, small_config

INPUTS = dict(population=POPULATION, seed=SEED, config=small_config())


@pytest.fixture
def sharded_dir(tmp_path):
    """A two-shard campaign killed after its barrier 1 committed."""
    directory = tmp_path / "campaign"
    with pytest.raises(SimulatedCrash):
        run_sharded_study(
            shard_count=2,
            mode="inline",
            checkpoint_dir=directory,
            crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
            **INPUTS,
        )
    return directory


class TestIdentityRefusals:
    def test_worker_store_is_not_a_monolithic_checkpoint(self, sharded_dir):
        with pytest.raises(CheckpointMismatchError, match="shard="):
            resume_study(shard_directory(sharded_dir, 0, 2), **INPUTS)

    def test_monolithic_store_is_not_a_sharded_campaign(self, tmp_path):
        directory = tmp_path / "ckpt"
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                directory,
                crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
                **INPUTS,
            )
        with pytest.raises(
            CheckpointMismatchError,
            match="not a sharded campaign's coordinator directory",
        ):
            resume_sharded_study(directory, **INPUTS)

    def test_shard_count_cannot_change_mid_campaign(self, sharded_dir):
        with pytest.raises(
            CheckpointMismatchError, match="cannot change mid-campaign"
        ):
            resume_sharded_study(sharded_dir, shard_count=3, **INPUTS)
