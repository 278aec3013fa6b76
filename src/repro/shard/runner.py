"""Lockstep sharded execution of the six-week study.

``N`` workers — in-process objects (``mode="inline"``) or forked OS
processes (``mode="process"``) — each rebuild the full deterministic
world from ``(seed, population)`` and measure one contiguous slice of
the site population.  The coordinator drives them day by day through
the same phases the monolithic loop runs:

1. **barrier** — each worker commits its per-shard checkpoint (barrier
   ``k`` before study day ``k`` runs, exactly like the monolithic
   checkpoint plane);
2. **collect** — the daily A/CNAME/NS sweep over the worker's slice;
3. **broadcast + scan** (weekly) — the workers ship their harvested
   nameserver names home, the coordinator merges them (sorted union)
   and broadcasts the campaign-wide harvest back, then every worker
   runs the §V sweeps over its slice with the *merged* harvest — the
   one step of the daily loop that genuinely needs cross-shard state;
4. **advance** — the world steps one day (every replica steps
   identically; the lockstep is never allowed to skew).

Each worker is one :class:`~repro.checkpoint.replica.Replica` of its
slice — the barrier commit, the seek on resume and the world replay
are the replica's, exactly as in the monolithic checkpoint plane.
After the last barrier each worker ships its payload
(:func:`~repro.shard.merge.worker_payload`); the coordinator merges
them, overlays the result onto its own unsharded replica replayed to
the merged day, and runs :meth:`~repro.core.study.SixWeekStudy.finalise`.
The merged report is byte-identical to a single-process campaign's,
whatever the shard count.

Checkpoints nest under the campaign directory: the coordinator's
manifest at the top (recording the shard count), one full per-shard
store in ``shard-<i>-of-<n>/`` each.  A resumed campaign seeks every
worker to the *lowest* barrier any shard committed — workers ahead of
it simply replay (their journals already hold the later barriers and
are never re-appended), which is the same tolerance the monolithic
plane applies to a torn journal tail.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..checkpoint.replica import Replica
from ..checkpoint.serde import config_to_dict
from ..checkpoint.store import CheckpointStore
from ..core.residual_scan import NameserverHarvest
from ..core.study import StudyConfig, StudyReport, scan_due
from ..errors import (
    CheckpointMismatchError,
    ConfigurationError,
    ShardError,
    ShardWorkerError,
    SimulatedCrash,
)
from ..faults.crash import CrashPlan
from ..scenario import Scenario
from .merge import merge_payloads, overlay_merged, worker_payload

__all__ = [
    "DEFAULT_OP_TIMEOUT",
    "WorkerSpec",
    "ShardWorker",
    "InlineExecutor",
    "ProcessExecutor",
    "shard_directory",
    "run_sharded_study",
    "resume_sharded_study",
]

SHARD_MODES = ("inline", "process")

#: Seconds the coordinator waits for one worker to answer one lockstep
#: operation before declaring it hung.  Generous: a single operation is
#: one study day over one shard's slice, which finishes in seconds even
#: on large populations — a worker silent this long is stuck, not slow.
DEFAULT_OP_TIMEOUT = 120.0

#: Seconds a worker waits for the coordinator's next operation before
#: concluding the coordinator itself is gone and exiting.  Larger than
#: the coordinator's deadline so the coordinator always rules first.
WORKER_IDLE_TIMEOUT = 600.0

#: Granularity of the bounded waits.  Both deadlines are accounted by
#: accumulating poll slices rather than reading the wall clock, so the
#: watchdog stays deterministic to reason about: the budget is a count
#: of slices, not a race against the scheduler.
_POLL_SLICE = 0.05


def shard_directory(base: "Path | str", shard_index: int, shard_count: int) -> Path:
    """The per-shard checkpoint store's location under a campaign dir."""
    return Path(base) / f"shard-{shard_index}-of-{shard_count}"


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker needs to build its replica — picklable, so a
    spawned process can reconstruct the worker from scratch."""

    shard_index: int
    shard_count: int
    population: int
    seed: int
    config: StudyConfig
    scenario: Scenario = Scenario()
    checkpoint_dir: Optional[str] = None
    crash_plan: Optional[CrashPlan] = None
    #: False: fresh run (create the store).  True: open the existing
    #: store and seek to ``seek_barrier`` (-1 = no committed snapshot
    #: anywhere; re-begin from scratch but keep the journal's history).
    resume: bool = False
    seek_barrier: int = -1


class ShardWorker:
    """One shard's :class:`~repro.checkpoint.replica.Replica`, driven
    operation by operation by the coordinator's lockstep protocol.

    Every barrier asserts the worker is at the lockstep position the
    coordinator believes it is, so a skew bug dies loudly instead of
    merging garbage.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.replica = Replica(
            population=spec.population,
            seed=spec.seed,
            config=spec.config,
            scenario=spec.scenario,
            shard={"index": spec.shard_index, "count": spec.shard_count},
            checkpoint_dir=spec.checkpoint_dir,
            resume=spec.resume,
            crash_plan=spec.crash_plan,
        )
        if spec.resume and spec.seek_barrier >= 0:
            self.replica.seek(spec.seek_barrier)

    def dispatch(self, op: str, argument: object = None) -> object:
        """Execute one coordinator-issued operation."""
        study, runtime = self.replica.study, self.replica.runtime
        if op == "barrier":
            if argument != runtime.day_index:
                raise ShardError(
                    f"shard {self.spec.shard_index} sits at day "
                    f"{runtime.day_index} but the coordinator announced "
                    f"barrier {argument}; the lockstep has skewed"
                )
            return self.replica.commit()
        if op == "collect":
            return study.collect_day(runtime)
        if op == "harvest_names":
            return runtime.harvest.state_dict()
        if op == "scan":
            return self._op_scan(argument)
        if op == "advance":
            return study.advance_day(runtime)
        if op == "finish":
            return worker_payload(study, runtime)
        raise ShardError(f"unknown shard operation {op!r}")

    def _op_scan(self, merged_names: object) -> None:
        """Run the weekly sweeps with the broadcast campaign harvest."""
        broadcast = NameserverHarvest()
        broadcast.restore_state(merged_names)
        self.replica.runtime.scan_harvest = broadcast
        self.replica.study.scan_day(self.replica.runtime)


# -- executors --------------------------------------------------------------


class InlineExecutor:
    """All workers in this process, stepped sequentially.

    The reference executor: no transport, no pickling, identical
    semantics — equivalence tests run against it, and it is the mode of
    choice when the campaign is small enough that process fan-out costs
    more than it buys.
    """

    def __init__(self, specs: Sequence[WorkerSpec]) -> None:
        self._specs = list(specs)
        self._workers: List[ShardWorker] = []

    def start(self) -> None:
        self._workers = [ShardWorker(spec) for spec in self._specs]

    def call_all(self, op: str, argument: object = None) -> List[object]:
        return [worker.dispatch(op, argument) for worker in self._workers]

    def close(self) -> None:
        self._workers = []


class ProcessExecutor:
    """One forked worker process per shard, coordinated over pipes.

    Fork is preferred where available (the parent's imports are shared
    copy-on-write); spawn works too because :class:`WorkerSpec` is
    picklable and the worker entrypoint is a module-level function.  A
    :class:`~repro.errors.SimulatedCrash` in any worker ends the whole
    campaign — the surviving processes are terminated and the crash is
    re-raised in the coordinator, exactly as the inline mode propagates
    it.

    Every wait on a worker is bounded.  The coordinator never issues a
    blind ``recv()``: it polls with a deadline (``op_timeout``), checks
    the process is still alive, and on expiry terminates the stragglers
    and raises :class:`~repro.errors.ShardWorkerError` naming them — a
    hung or killed worker fails the campaign loudly instead of
    deadlocking the study.
    """

    def __init__(
        self,
        specs: Sequence[WorkerSpec],
        op_timeout: Optional[float] = None,
    ) -> None:
        self._specs = list(specs)
        self._op_timeout = (
            float(op_timeout) if op_timeout is not None else DEFAULT_OP_TIMEOUT
        )
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._processes: List[object] = []
        self._connections: List[object] = []

    def start(self) -> None:
        for spec in self._specs:
            parent_end, child_end = self._context.Pipe()
            process = self._context.Process(
                target=_worker_main, args=(child_end, spec), daemon=True
            )
            process.start()
            child_end.close()
            self._processes.append(process)
            self._connections.append(parent_end)
        self._gather("start")

    def call_all(self, op: str, argument: object = None) -> List[object]:
        undeliverable: List[int] = []
        for index, connection in enumerate(self._connections):
            try:
                connection.send((op, argument))
            except (BrokenPipeError, OSError):
                # The worker's pipe end is gone — it died between
                # operations.  Recorded here, reported (with any other
                # deaths) by the gather's refusal.
                undeliverable.append(index)
        return self._gather(op, undeliverable)

    def _await_reply(self, connection: object, process: object) -> bool:
        """Bounded wait for one worker's next message.

        Returns True when a message (or the EOF of a dead worker's
        closed pipe) is ready to ``recv()``, False when the deadline
        expired with the worker still alive and silent — a straggler.
        The deadline is accounted by accumulating poll slices, never by
        reading the wall clock.
        """
        waited = 0.0
        while waited < self._op_timeout:
            if connection.poll(_POLL_SLICE):
                return True
            if not process.is_alive():
                # recv() still drains anything the worker wrote before
                # exiting; on an empty closed pipe it raises EOFError
                # and the caller maps that to the died-mid-protocol
                # refusal.
                return True
            waited += _POLL_SLICE
        return False

    def _gather(
        self, op: str, undeliverable: Sequence[int] = ()
    ) -> List[object]:
        results: List[object] = []
        crashes: List[str] = []
        failures: List[object] = []
        dead: List[int] = list(undeliverable)
        stragglers: List[int] = []
        for index, connection in enumerate(self._connections):
            if index in dead:
                continue
            if not self._await_reply(connection, self._processes[index]):
                stragglers.append(index)
                continue
            try:
                kind, value = connection.recv()
            except (EOFError, OSError):
                kind, value = "dead", None
            if kind == "ok":
                results.append(value)
            elif kind == "crashed":
                crashes.append(f"shard {index}: {value}")
            elif kind == "dead":
                dead.append(index)
            else:
                failures.append(value)
        if failures:
            self.close(force=True)
            # Workers ship the exception object itself when it pickles,
            # so refusal semantics survive the process boundary — a
            # CheckpointCorruptError in a worker's seek is the same
            # refusal it would be inline.
            first = failures[0]
            if isinstance(first, BaseException):
                raise first
            raise ShardError(f"worker failure during {op!r}: {first}")
        if crashes:
            self.close(force=True)
            raise SimulatedCrash("; ".join(crashes))
        if dead or stragglers:
            self.close(force=True)
            parts = []
            if dead:
                named = ", ".join(f"shard {index}" for index in dead)
                parts.append(f"{named} died mid-protocol without reporting")
            if stragglers:
                named = ", ".join(f"shard {index}" for index in stragglers)
                parts.append(
                    f"{named} did not answer within "
                    f"{self._op_timeout:g}s and was terminated"
                )
            raise ShardWorkerError(
                f"lockstep operation {op!r} lost worker(s): "
                + "; ".join(parts)
            )
        return results

    def close(self, force: bool = False) -> None:
        for connection in self._connections:
            if not force:
                try:
                    connection.send(("exit", None))
                except (BrokenPipeError, OSError):
                    pass
            connection.close()
        for process in self._processes:
            process.join(timeout=5)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5)
        self._processes = []
        self._connections = []


def _worker_main(connection, spec: WorkerSpec) -> None:
    """Entrypoint of a worker process (module-level for spawn safety)."""
    try:
        try:
            worker = ShardWorker(spec)
            connection.send(("ok", worker.replica.latest_barrier))
            while True:
                # The worker-side half of the deadlock fix: never block
                # forever on a coordinator that hung or was killed
                # without closing the pipe.
                waited = 0.0
                while not connection.poll(_POLL_SLICE):
                    waited += _POLL_SLICE
                    if waited >= WORKER_IDLE_TIMEOUT:
                        raise ShardWorkerError(
                            f"shard {spec.shard_index} waited "
                            f"{WORKER_IDLE_TIMEOUT:g}s for the "
                            "coordinator's next operation; giving up"
                        )
                op, argument = connection.recv()
                if op == "exit":
                    break
                result = worker.dispatch(op, argument)
                connection.send(("ok", result))
        except SimulatedCrash as crash:
            connection.send(("crashed", str(crash)))
        except EOFError:
            pass  # coordinator went away; nothing to report to
        except Exception as exc:  # repro: allow[REP021] -- a worker process must report any failure over the pipe, not die silently with a broken campaign
            try:
                connection.send(("error", exc))
            except Exception:  # repro: allow[REP021] -- unpicklable exception; fall back to its text
                connection.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        connection.close()


# -- the coordinator --------------------------------------------------------


def run_sharded_study(
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    fault_profile: Optional[str] = None,
    traffic_profile: Optional[str] = None,
    attack_profile: Optional[str] = None,
    shard_count: int = 1,
    mode: str = "inline",
    checkpoint_dir: "Path | str | None" = None,
    crash_plan: Optional[CrashPlan] = None,
    op_timeout: Optional[float] = None,
) -> StudyReport:
    """Run the campaign over ``shard_count`` lockstep workers and merge.

    With ``checkpoint_dir`` the campaign is crash-safe: the coordinator
    writes its manifest at the top and each worker keeps a full
    checkpoint store in its own subdirectory; :func:`resume_sharded_study`
    continues a killed campaign on the identical trajectory.
    ``crash_plan`` arms the same :class:`~repro.faults.crash.CrashPlan`
    in *every* worker — the sharded kill-matrix's fault kind.

    A fault profile whose faults depend on which deliveries a worker
    makes is refused with :class:`~repro.errors.ShardError` when
    ``shard_count > 1``, before any store is written or worker started.
    """
    config = config if config is not None else StudyConfig()
    scenario = Scenario(fault_profile, traffic_profile, attack_profile)
    _require_mode(mode)
    if population < 1:
        raise ConfigurationError(f"population must be >= 1, got {population}")
    if shard_count < 1:
        raise ConfigurationError(f"shard_count must be >= 1, got {shard_count}")
    if shard_count > population:
        raise ConfigurationError(
            f"cannot split {population} site(s) over {shard_count} "
            "shard(s); every shard needs at least one site"
        )
    scenario.require_shardable(shard_count)
    base = Path(checkpoint_dir) if checkpoint_dir is not None else None
    if base is not None:
        CheckpointStore.create(
            base,
            seed=seed,
            population=population,
            config=config_to_dict(config),
            scenario=scenario,
            shard={"count": shard_count},
        )
    first = WorkerSpec(
        0, shard_count, population, seed, config, scenario, crash_plan=crash_plan
    )
    return _campaign(first, base, mode, op_timeout)


def resume_sharded_study(
    checkpoint_dir: "Path | str",
    *,
    population: int,
    seed: int,
    config: Optional[StudyConfig] = None,
    fault_profile: Optional[str] = None,
    traffic_profile: Optional[str] = None,
    attack_profile: Optional[str] = None,
    mode: str = "inline",
    shard_count: Optional[int] = None,
    crash_plan: Optional[CrashPlan] = None,
    op_timeout: Optional[float] = None,
) -> StudyReport:
    """Continue a killed sharded campaign on its exact trajectory.

    The shard count is read from the coordinator's manifest (and
    cross-checked against ``shard_count`` when supplied).  Every worker
    seeks to the lowest barrier committed by *any* shard — workers that
    got further replay deterministically up to their journals' existing
    records without re-appending them.
    """
    config = config if config is not None else StudyConfig()
    scenario = Scenario(fault_profile, traffic_profile, attack_profile)
    _require_mode(mode)
    base = Path(checkpoint_dir)
    parent = CheckpointStore.open(base)
    recorded = parent.manifest.get("shard")
    if not isinstance(recorded, dict) or "count" not in recorded or "index" in recorded:
        raise CheckpointMismatchError(
            f"{base} is not a sharded campaign's coordinator directory; "
            "resume monolithic checkpoints with resume_study"
        )
    count = int(recorded["count"])
    if shard_count is not None and shard_count != count:
        raise CheckpointMismatchError(
            f"campaign at {base} ran with {count} shard(s); the resume "
            f"asked for {shard_count} — the partition is part of the "
            "trajectory and cannot change mid-campaign"
        )
    parent.verify_inputs(
        seed=seed,
        population=population,
        config=config_to_dict(config),
        scenario=scenario,
        shard={"count": count},
    )

    latest_barriers: List[int] = []
    for index in range(count):
        shard_store = CheckpointStore.open(shard_directory(base, index, count))
        record = shard_store.latest()
        latest_barriers.append(int(record["barrier"]) if record else -1)
    first = WorkerSpec(
        0, count, population, seed, config, scenario, crash_plan=crash_plan,
        resume=True, seek_barrier=min(latest_barriers),
    )
    return _campaign(first, base, mode, op_timeout)


# -- internals -------------------------------------------------------------


def _require_mode(mode: str) -> None:
    if mode not in SHARD_MODES:
        raise ShardError(
            f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}"
        )


def _drive_lockstep(
    specs: Sequence[WorkerSpec],
    config: StudyConfig,
    mode: str,
    start_barrier: int,
    op_timeout: Optional[float] = None,
) -> List[Dict[str, object]]:
    """The coordinator's day loop: barrier → collect → (scan) → advance."""
    executor = (
        ProcessExecutor(specs, op_timeout=op_timeout)
        if mode == "process"
        else InlineExecutor(specs)
    )
    executor.start()
    try:
        day = start_barrier
        while True:
            executor.call_all("barrier", day)
            if day >= config.study_days:
                break
            executor.call_all("collect")
            if scan_due(config, day):
                name_lists = executor.call_all("harvest_names")
                campaign_harvest = sorted(
                    {name for names in name_lists for name in names}
                )
                executor.call_all("scan", campaign_harvest)
            executor.call_all("advance")
            day += 1
        return executor.call_all("finish")
    finally:
        executor.close()


def _campaign(
    first: WorkerSpec,
    base: Optional[Path],
    mode: str,
    op_timeout: Optional[float],
) -> StudyReport:
    """Drive every worker in lockstep, merge, and finalise.

    ``first`` is shard 0's spec; the others differ only in their index
    and, under ``base``, their store directory.  The merged state is
    finalised on the coordinator's own replica of the whole population:
    no store, its world replayed to the merged day, the merged
    measurements overlaid in the role of a snapshot.
    """
    specs = [
        replace(
            first,
            shard_index=index,
            checkpoint_dir=(
                str(shard_directory(base, index, first.shard_count))
                if base is not None
                else None
            ),
        )
        for index in range(first.shard_count)
    ]
    payloads = _drive_lockstep(
        specs,
        first.config,
        mode,
        start_barrier=max(first.seek_barrier, 0),
        op_timeout=op_timeout,
    )
    merged = merge_payloads(payloads)
    coordinator = Replica(
        population=first.population,
        seed=first.seed,
        config=first.config,
        scenario=first.scenario,
    )
    coordinator.replay(
        int(merged["day_index"]),
        int(merged["clock_now"]),
        ShardError,
        "the workers",
    )
    overlay_merged(
        coordinator.study, coordinator.runtime, merged, coordinator.names
    )
    return coordinator.study.finalise(coordinator.runtime)
