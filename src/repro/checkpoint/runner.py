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
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

from ..core.study import SixWeekStudy, StudyConfig, StudyReport, StudyRuntime
from ..errors import CheckpointError
from ..faults.crash import CrashPlan
from ..scenario import Scenario
from .serde import config_to_dict, restore_runtime, serialize_runtime
from .store import CheckpointStore

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
    config = config if config is not None else StudyConfig()
    scenario = Scenario(fault_profile, traffic_profile, attack_profile)
    store = CheckpointStore.create(
        checkpoint_dir,
        seed=seed,
        population=population,
        config=config_to_dict(config),
        scenario=scenario,
    )
    study, runtime = scenario.begin_study(population, seed, config)
    return _drive(store, study, runtime, crash_plan, latest_barrier=-1)


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
    config = config if config is not None else StudyConfig()
    scenario = Scenario(fault_profile, traffic_profile, attack_profile)
    store = CheckpointStore.open(checkpoint_dir)
    store.verify_inputs(
        seed=seed,
        population=population,
        config=config_to_dict(config),
        scenario=scenario,
    )
    record = store.latest()
    if record is None:
        raise CheckpointError(
            f"journal at {store.journal_path} holds no committed barriers; "
            "nothing to resume — rerun from scratch"
        )
    state = store.load_snapshot(record)

    study, runtime = scenario.begin_study(population, seed, config)
    restore_runtime(study, runtime, state)
    return _drive(
        store, study, runtime, crash_plan, latest_barrier=int(record["barrier"])
    )


# -- internals -------------------------------------------------------------


def _drive(
    store: CheckpointStore,
    study: SixWeekStudy,
    runtime: StudyRuntime,
    crash_plan: Optional[CrashPlan],
    latest_barrier: int,
) -> StudyReport:
    """The barrier loop shared by fresh and resumed runs.

    Barriers already committed (``<= latest_barrier``) are never
    re-appended: a resume picks the loop up mid-stride without touching
    the journal's history.
    """
    study_days = study.config.study_days
    while True:
        barrier = runtime.day_index
        if barrier > latest_barrier:
            _commit_barrier(store, study, runtime, crash_plan, barrier)
            latest_barrier = barrier
        if barrier >= study_days:
            break
        study.run_day(runtime)
    return study.finalise(runtime)


def _commit_barrier(
    store: CheckpointStore,
    study: SixWeekStudy,
    runtime: StudyRuntime,
    crash_plan: Optional[CrashPlan],
    barrier: int,
) -> None:
    if crash_plan is not None:
        crash_plan.fire_if_due(barrier, "before-commit")
    state = serialize_runtime(study, runtime)
    store.append_barrier(
        barrier=barrier,
        day=study.world.clock.day,
        clock_now=study.world.clock.now,
        state=state,
    )
    if crash_plan is not None:
        crash_plan.fire_if_due(barrier, "after-commit")
