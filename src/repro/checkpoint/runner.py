"""Checkpointed execution of the six-week study.

The study runs between *checkpoint barriers*: barrier 0 sits after
warm-up and before study day 0, barrier ``k`` after study day ``k-1``
completes, up to barrier ``study_days`` just before the post-loop
analyses.  At each barrier the runtime is serialized, the snapshot is
made atomically durable, and a journal record commits it — then the
next day runs.

A crash anywhere leaves the journal ending at the last *committed*
barrier.  :func:`resume_study` rebuilds the world from the manifest's
inputs, replays the world's (measurement-independent) dynamics up to
the snapshot's day, overlays the measurement state, verifies the
replayed clock landed exactly where the snapshot says it should, and
drives the remaining barriers.  The kill-matrix harness asserts the
result is byte-identical to an uninterrupted run, for a crash at every
barrier in both crash modes.

Both entry points drive one :class:`~repro.checkpoint.replica.Replica`
of the whole population in-process — the one-worker case of the
sharded campaign, whose workers are replicas too.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..core.study import StudyConfig, StudyReport
from ..errors import CheckpointError
from ..faults.crash import CrashPlan
from ..scenario import Scenario
from .replica import Replica

__all__ = ["run_checkpointed_study", "resume_study"]


def run_checkpointed_study(
    checkpoint_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    fault_profile: Optional[str] = None,
    traffic_profile: Optional[str] = None,
    attack_profile: Optional[str] = None,
    crash_plan: Optional[CrashPlan] = None,
) -> StudyReport:
    """Run the study from scratch, committing a barrier per day.

    ``crash_plan`` injects a deterministic :class:`SimulatedCrash` at a
    chosen barrier — the kill-matrix's fault kind.  The checkpoint
    directory must be fresh; an existing run is resumed with
    :func:`resume_study`, never silently overwritten.  Profile names
    are validated before the directory is touched.
    """
    scenario = Scenario(fault_profile, traffic_profile, attack_profile)
    return _campaign(
        checkpoint_dir, population, seed, config, scenario, crash_plan
    )


def resume_study(
    checkpoint_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    fault_profile: Optional[str] = None,
    traffic_profile: Optional[str] = None,
    attack_profile: Optional[str] = None,
    crash_plan: Optional[CrashPlan] = None,
) -> StudyReport:
    """Continue a crashed run on the exact deterministic trajectory.

    Refuses loudly when the supplied inputs differ from the manifest
    (:class:`CheckpointMismatchError`), when a snapshot or mid-journal
    record is damaged (:class:`CheckpointCorruptError`), or when the
    replayed world's clock drifts from the snapshot's recorded position
    — drift means world dynamics were not reproduced and the resumed
    measurements would silently diverge.
    """
    scenario = Scenario(fault_profile, traffic_profile, attack_profile)
    return _campaign(
        checkpoint_dir, population, seed, config, scenario, crash_plan,
        resume=True,
    )


# -- internals -------------------------------------------------------------


def _campaign(
    checkpoint_dir: "Path | str",
    population: int,
    seed: int,
    config: Optional[StudyConfig],
    scenario: Scenario,
    crash_plan: Optional[CrashPlan],
    resume: bool = False,
) -> StudyReport:
    """Barrier, day, barrier, ... then finalise, on one replica."""
    replica = Replica(
        population=population,
        seed=seed,
        config=config if config is not None else StudyConfig(),
        scenario=scenario,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        crash_plan=crash_plan,
    )
    if resume:
        if replica.latest_barrier < 0:
            raise CheckpointError(
                f"journal at {replica.store.journal_path} holds no committed "
                "barriers; nothing to resume — rerun from scratch"
            )
        replica.seek(replica.latest_barrier)
    study, runtime = replica.study, replica.runtime
    while True:
        replica.commit()
        if runtime.finished:
            return study.finalise(runtime)
        study.run_day(runtime)
