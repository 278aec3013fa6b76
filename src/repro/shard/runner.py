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

After the last barrier each worker ships its payload
(:func:`~repro.shard.merge.worker_payload`); the coordinator merges
them, overlays the result onto a freshly replayed monolithic runtime,
and runs :meth:`~repro.core.study.SixWeekStudy.finalise`.  The merged
report is byte-identical to a single-process campaign's, whatever the
shard count.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from ..checkpoint.serde import config_to_dict, restore_runtime, serialize_runtime
from ..checkpoint.store import CheckpointStore
from ..core.residual_scan import NameserverHarvest
from ..core.study import StudyConfig, StudyReport
from ..errors import (
    CheckpointMismatchError,
    ShardError,
    ShardWorkerError,
    SimulatedCrash,
    SimulationError,
)
from ..faults.crash import CrashPlan
from ..scenario import Scenario
from .merge import merge_payloads, overlay_merged, worker_payload
from .plan import ShardPlan

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
    """One shard's replica: full world, slice-wide measurement state.

    Driven operation by operation from the coordinator; every operation
    asserts the worker is at the lockstep position the coordinator
    believes it is, so a skew bug dies loudly instead of merging
    garbage.
    """

    def __init__(self, spec: WorkerSpec) -> None:
        self.spec = spec
        self.store = self._attach_store()
        records = self.store.barriers() if self.store is not None else []
        self.latest_barrier = int(records[-1]["barrier"]) if records else -1
        self.study, self.runtime = spec.scenario.begin_study(
            spec.population,
            spec.seed,
            spec.config,
            spec.shard_index,
            spec.shard_count,
        )
        if spec.resume and spec.seek_barrier >= 0:
            self._seek(records)

    # -- construction --------------------------------------------------

    def _attach_store(self) -> Optional[CheckpointStore]:
        spec = self.spec
        if spec.checkpoint_dir is None:
            return None
        identity = dict(
            seed=spec.seed,
            population=spec.population,
            config=config_to_dict(spec.config),
            scenario=spec.scenario,
            shard={"index": spec.shard_index, "count": spec.shard_count},
        )
        if spec.resume:
            store = CheckpointStore.open(spec.checkpoint_dir)
            store.verify_inputs(**identity)
            return store
        return CheckpointStore.create(spec.checkpoint_dir, **identity)

    def _seek(self, records: List[Dict[str, object]]) -> None:
        """Replay the world to ``seek_barrier`` and overlay its snapshot."""
        target = self.spec.seek_barrier
        if target > self.latest_barrier:
            raise ShardError(
                f"shard {self.spec.shard_index} was asked to seek to "
                f"barrier {target} but has only committed up to "
                f"{self.latest_barrier}"
            )
        record = records[target]  # barriers are contiguous from 0
        state = self.store.load_snapshot(record)
        restore_runtime(self.study, self.runtime, state)

    # -- lockstep operations -------------------------------------------

    def dispatch(self, op: str, argument: object = None) -> object:
        """Execute one coordinator-issued operation."""
        if op == "barrier":
            return self._op_barrier(int(argument))
        if op == "collect":
            return self.study.collect_day(self.runtime)
        if op == "harvest_names":
            return self.runtime.harvest.state_dict()
        if op == "scan":
            return self._op_scan(argument)
        if op == "advance":
            return self.study.advance_day(self.runtime)
        if op == "finish":
            return worker_payload(self.study, self.runtime)
        raise ShardError(f"unknown shard operation {op!r}")

    def _op_barrier(self, barrier: int) -> int:
        if barrier != self.runtime.day_index:
            raise ShardError(
                f"shard {self.spec.shard_index} sits at day "
                f"{self.runtime.day_index} but the coordinator announced "
                f"barrier {barrier}; the lockstep has skewed"
            )
        if barrier > self.latest_barrier:
            crash_plan = self.spec.crash_plan
            if crash_plan is not None:
                crash_plan.fire_if_due(barrier, "before-commit")
            if self.store is not None:
                self.store.append_barrier(
                    barrier=barrier,
                    day=self.study.world.clock.day,
                    clock_now=self.study.world.clock.now,
                    state=serialize_runtime(self.study, self.runtime),
                )
            if crash_plan is not None:
                crash_plan.fire_if_due(barrier, "after-commit")
            self.latest_barrier = barrier
        return self.latest_barrier

    def _op_scan(self, merged_names: object) -> None:
        """Run the weekly sweeps with the broadcast campaign harvest."""
        broadcast = NameserverHarvest()
        broadcast.restore_state(merged_names)
        self.runtime.scan_harvest = broadcast
        self.study.scan_day(self.runtime)


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
            connection.send(("ok", worker.latest_barrier))
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
    ShardPlan(population, shard_count)  # validates the topology
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
    specs = [
        WorkerSpec(
            shard_index=index,
            shard_count=shard_count,
            population=population,
            seed=seed,
            config=config,
            scenario=scenario,
            checkpoint_dir=(
                str(shard_directory(base, index, shard_count))
                if base is not None
                else None
            ),
            crash_plan=crash_plan,
        )
        for index in range(shard_count)
    ]
    payloads = _drive_lockstep(
        specs, config, mode, start_barrier=0, op_timeout=op_timeout
    )
    return _finalise_merged(population, seed, config, scenario, payloads)


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
    seek_barrier = min(latest_barriers)

    specs = [
        WorkerSpec(
            shard_index=index,
            shard_count=count,
            population=population,
            seed=seed,
            config=config,
            scenario=scenario,
            checkpoint_dir=str(shard_directory(base, index, count)),
            crash_plan=crash_plan,
            resume=True,
            seek_barrier=seek_barrier,
        )
        for index in range(count)
    ]
    start = seek_barrier if seek_barrier >= 0 else 0
    payloads = _drive_lockstep(
        specs, config, mode, start_barrier=start, op_timeout=op_timeout
    )
    return _finalise_merged(population, seed, config, scenario, payloads)


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
            if config.run_residual_scans and day % config.scan_every_days == 0:
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


def _finalise_merged(
    population: int,
    seed: int,
    config: StudyConfig,
    scenario: Scenario,
    payloads: List[Dict[str, object]],
) -> StudyReport:
    """Merge worker payloads and run the post-loop analyses.

    The coordinator replays its own full-world replica (warm-up via
    :meth:`begin`, then the study's engine days), overlays the merged
    measurement state, and finalises — the same world-replay discipline
    the checkpoint plane's resume uses, with the merged payload in the
    role of the snapshot.
    """
    merged = merge_payloads(payloads)
    study, runtime = scenario.begin_study(population, seed, config)
    world = study.world
    for _ in range(int(merged["day_index"])):
        world.engine.run_day()
    try:
        world.clock.require(int(merged["clock_now"]))
    except SimulationError as exc:
        raise ShardError(
            f"coordinator world replay drifted from the workers: {exc}"
        ) from exc
    overlay_merged(study, runtime, merged)
    return study.finalise(runtime)
