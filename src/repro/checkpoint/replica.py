"""One durable replica of the six-week campaign.

A replica is a full world rebuilt from ``(seed, population)`` plus the
measurement state of one slice of the population, optionally backed by
a checkpoint store.  A checkpointed study is one replica of the whole
population (:mod:`repro.checkpoint.runner`), each shard worker one of
its slice (:class:`repro.shard.runner.ShardWorker`), and the shard
coordinator finalises on an unsharded, store-less one.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional, Type

from ..core.study import StudyConfig
from ..errors import (
    CheckpointCorruptError,
    CheckpointError,
    ReproError,
    SimulationError,
)
from ..faults.crash import CrashPlan
from ..scenario import Scenario
from .serde import (
    NameTable,
    config_to_dict,
    fold_snapshots,
    restore_runtime,
    serialize_runtime,
    series_lengths,
)
from .store import CheckpointStore

__all__ = ["Replica"]


class Replica:
    """A world and one slice's measurement state, optionally durable.

    ``shard`` is the store identity: ``None`` for the whole population
    (a monolithic run, or the shard coordinator), ``{"index": i,
    "count": n}`` for worker ``i`` of ``n``.  With ``checkpoint_dir`` the
    store is created fresh, or — with ``resume`` — opened and refused
    unless its manifest records exactly these inputs and this identity.
    Construction then builds and warms the world; a resumed replica is
    placed on its trajectory with :meth:`seek`.

    The replica keeps a committed-row cursor: the report's series
    lengths at the newest barrier it committed or passed.  A barrier
    journals only the rows appended after it, and :meth:`seek` folds the
    journal's barriers back.  Rows decode through :attr:`names`, the
    replica's own name table.
    """

    def __init__(
        self,
        *,
        population: int,
        seed: int,
        config: StudyConfig,
        scenario: Scenario = Scenario(),
        shard: Optional[Dict[str, int]] = None,
        checkpoint_dir: "Path | str | None" = None,
        resume: bool = False,
        crash_plan: Optional[CrashPlan] = None,
    ) -> None:
        self.crash_plan = crash_plan
        self.names = NameTable()
        self.store: Optional[CheckpointStore] = None
        self._records: List[Dict[str, object]] = []
        if checkpoint_dir is not None:
            identity = dict(
                seed=seed,
                population=population,
                config=config_to_dict(config),
                scenario=scenario,
                shard=shard,
            )
            if resume:
                self.store = CheckpointStore.open(checkpoint_dir)
                self.store.verify_inputs(**identity)
                self._records = self.store.barriers()
            else:
                self.store = CheckpointStore.create(checkpoint_dir, **identity)
        #: Newest barrier this replica's journal holds (-1: none).
        self.latest_barrier = (
            int(self._records[-1]["barrier"]) if self._records else -1
        )
        index, count = (shard["index"], shard["count"]) if shard else (0, 1)
        self.study, self.runtime = scenario.begin_study(
            population, seed, config, index, count
        )
        self._cursor = series_lengths(self.runtime.report)

    def commit(self) -> int:
        """Commit the barrier before the runtime's next study day.

        The barrier journals the rows appended since the cursor plus the
        small state, then the cursor advances.  A barrier the journal
        already holds (a sharded resume replaying past its own journal)
        is never re-appended, so a resumed replica leaves the journal's
        history untouched; it still advances the cursor, once the rows
        replayed so far match what that barrier committed.  Returns the
        newest committed barrier.
        """
        barrier = self.runtime.day_index
        lengths = series_lengths(self.runtime.report)
        if barrier > self.latest_barrier:
            if self.crash_plan is not None:
                self.crash_plan.fire_if_due(barrier, "before-commit")
            if self.store is not None:
                clock = self.study.world.clock
                self.store.append_barrier(
                    barrier=barrier,
                    day=clock.day,
                    clock_now=clock.now,
                    state=serialize_runtime(self.study, self.runtime, self._cursor),
                    lengths=lengths,
                )
            if self.crash_plan is not None:
                self.crash_plan.fire_if_due(barrier, "after-commit")
            self.latest_barrier = barrier
        elif lengths != self._records[barrier]["lengths"]:
            raise CheckpointCorruptError(
                f"replayed barrier {barrier} holds series lengths {lengths} "
                f"but the journal committed {self._records[barrier]['lengths']}"
            )
        self._cursor = lengths
        return self.latest_barrier

    def seek(self, barrier: int) -> None:
        """Replay the world to a committed barrier and fold its journal.

        Barriers ``0..barrier`` are loaded (each hash-verified) and
        folded into that barrier's whole state, which is overlaid on the
        replayed runtime.
        """
        if not 0 <= barrier <= self.latest_barrier:
            raise CheckpointError(
                f"replica was asked to seek to barrier {barrier} but its "
                f"journal holds barriers up to {self.latest_barrier}"
            )
        records = self._records[: barrier + 1]
        state = fold_snapshots(
            [self.store.load_snapshot(record) for record in records],
            [record["lengths"] for record in records],
        )
        self.replay(
            int(state["day_index"]),
            int(state["clock_now"]),
            CheckpointCorruptError,
            "the snapshot",
        )
        restore_runtime(self.study, self.runtime, state, self.names)
        self._cursor = series_lengths(self.runtime.report)

    def replay(
        self,
        day_index: int,
        clock_now: int,
        refusal: Type[ReproError],
        source: str,
    ) -> None:
        """Step the freshly begun world ``day_index`` study days.

        World dynamics are measurement-independent, so the replayed
        world lands on the state the original reached; its clock must
        read ``clock_now`` (as recorded by ``source``) or ``refusal`` is
        raised — drift means the two did not share a trajectory.
        """
        world = self.study.world
        for _ in range(day_index):
            world.engine.run_day()
        try:
            world.clock.require(clock_now)
        except SimulationError as exc:
            raise refusal(
                f"replayed world clock drifted from {source}: {exc}"
            ) from exc
