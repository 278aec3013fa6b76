"""Crash/resume equivalence and refusal-path tests."""

import pytest

from repro.checkpoint import (
    canonical_json,
    resume_study,
    run_checkpointed_study,
    study_artifact,
)
from repro.core.study import SixWeekStudy, StudyConfig
from repro.errors import (
    CheckpointError,
    CheckpointMismatchError,
    ConfigurationError,
    SimulatedCrash,
)
from repro.faults.crash import CrashPlan
from repro.world import SimulatedInternet, WorldConfig

from .conftest import POPULATION, SEED, STUDY_DAYS, small_config


def crash_then_resume(directory, inputs, barrier, mode):
    """Run to a simulated crash at (barrier, mode), then resume."""
    with pytest.raises(SimulatedCrash):
        run_checkpointed_study(
            directory,
            crash_plan=CrashPlan(at_barrier=barrier, mode=mode),
            **inputs,
        )
    return canonical_json(study_artifact(resume_study(directory, **inputs)))


class TestCheckpointedRun:
    def test_matches_plain_study(self, tmp_path, study_inputs, reference_artifact):
        world = SimulatedInternet(
            WorldConfig(population_size=POPULATION, seed=SEED)
        )
        plain = SixWeekStudy(world, small_config()).run()
        assert canonical_json(study_artifact(plain)) == reference_artifact

    def test_commits_every_barrier(self, tmp_path, study_inputs):
        from repro.checkpoint import CheckpointStore

        run_checkpointed_study(tmp_path / "ckpt", **study_inputs)
        records = CheckpointStore.open(tmp_path / "ckpt").barriers()
        assert [r["barrier"] for r in records] == list(range(STUDY_DAYS + 1))
        # Barrier clocks move strictly forward, one day apart.
        clocks = [r["clock_now"] for r in records]
        assert clocks == sorted(set(clocks))


class TestCrashResume:
    def test_after_commit_crash_resumes_identically(
        self, tmp_path, study_inputs, reference_artifact
    ):
        resumed = crash_then_resume(
            tmp_path / "ckpt", study_inputs, barrier=1, mode="after-commit"
        )
        assert resumed == reference_artifact

    def test_before_commit_crash_resumes_identically(
        self, tmp_path, study_inputs, reference_artifact
    ):
        # The journal ends one barrier short: day N-1 reruns on resume.
        resumed = crash_then_resume(
            tmp_path / "ckpt", study_inputs, barrier=2, mode="before-commit"
        )
        assert resumed == reference_artifact

    def test_crash_at_final_barrier_resumes_identically(
        self, tmp_path, study_inputs, reference_artifact
    ):
        resumed = crash_then_resume(
            tmp_path / "ckpt", study_inputs, barrier=STUDY_DAYS, mode="after-commit"
        )
        assert resumed == reference_artifact

    def test_resume_of_finished_run_identical(
        self, tmp_path, study_inputs, reference_artifact
    ):
        run_checkpointed_study(tmp_path / "ckpt", **study_inputs)
        resumed = resume_study(tmp_path / "ckpt", **study_inputs)
        assert canonical_json(study_artifact(resumed)) == reference_artifact

    def test_fault_profile_crash_resume_identical(self, tmp_path):
        inputs = dict(
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            fault_profile="lossy-default",
        )
        reference = canonical_json(
            study_artifact(run_checkpointed_study(tmp_path / "ref", **inputs))
        )
        resumed = crash_then_resume(
            tmp_path / "crash", inputs, barrier=2, mode="after-commit"
        )
        assert resumed == reference


class TestResumeRefusals:
    @pytest.fixture
    def crashed_dir(self, tmp_path, study_inputs):
        with pytest.raises(SimulatedCrash):
            run_checkpointed_study(
                tmp_path / "ckpt",
                crash_plan=CrashPlan(at_barrier=1, mode="after-commit"),
                **study_inputs,
            )
        return tmp_path / "ckpt"

    def test_wrong_seed_refused(self, crashed_dir, study_inputs):
        with pytest.raises(CheckpointMismatchError, match="seed"):
            resume_study(crashed_dir, **dict(study_inputs, seed=SEED + 1))

    def test_wrong_population_refused(self, crashed_dir, study_inputs):
        with pytest.raises(CheckpointMismatchError, match="population"):
            resume_study(
                crashed_dir, **dict(study_inputs, population=POPULATION + 1)
            )

    def test_wrong_config_refused(self, crashed_dir, study_inputs):
        other = StudyConfig(warmup_days=8, study_days=STUDY_DAYS + 1)
        with pytest.raises(CheckpointMismatchError, match="config"):
            resume_study(crashed_dir, **dict(study_inputs, config=other))

    def test_wrong_profile_refused(self, crashed_dir, study_inputs):
        with pytest.raises(CheckpointMismatchError, match="fault_profile"):
            resume_study(
                crashed_dir, **dict(study_inputs, fault_profile="heavy-loss")
            )

    def test_empty_journal_refused(self, tmp_path, study_inputs):
        from repro.checkpoint import CheckpointStore, config_to_dict

        CheckpointStore.create(
            tmp_path / "ckpt",
            seed=SEED,
            population=POPULATION,
            config=config_to_dict(study_inputs["config"]),
        )
        with pytest.raises(CheckpointError, match="no committed barriers"):
            resume_study(tmp_path / "ckpt", **study_inputs)


class TestCrashPlan:
    def test_modes_validated(self):
        with pytest.raises(ConfigurationError, match="unknown crash mode"):
            CrashPlan(at_barrier=1, mode="sideways")

    def test_negative_barrier_refused(self):
        with pytest.raises(ConfigurationError, match="at_barrier"):
            CrashPlan(at_barrier=-1)

    def test_before_commit_at_barrier_zero_refused(self):
        with pytest.raises(ConfigurationError, match="barrier 0"):
            CrashPlan(at_barrier=0, mode="before-commit")

    def test_fires_only_at_its_barrier_and_phase(self):
        plan = CrashPlan(at_barrier=2, mode="after-commit")
        plan.fire_if_due(1, "after-commit")
        plan.fire_if_due(2, "before-commit")
        with pytest.raises(SimulatedCrash, match="barrier 2"):
            plan.fire_if_due(2, "after-commit")
