"""The benchmark's view of the program: workloads, phase clock, layers.

Everything here drives the study only through its public entry points
(``SixWeekStudy``, ``run_sharded_study``, ``run_checkpointed_study``)
and observes it only by wrapping public callables from outside, with
:class:`tracer.Patch` / :class:`tracer.Tracer`.  Import it with the
program's ``src`` directory on ``sys.path``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional

from tracer import Patch, Tracer
from workloads import SHARD_COUNT, Workload

from repro.attacks.plane import AttackPlane
from repro.checkpoint import serde
from repro.checkpoint.killmatrix import study_artifact
from repro.checkpoint.runner import run_checkpointed_study
from repro.checkpoint.store import CheckpointStore, canonical_json
from repro.core.collector import DnsRecordCollector
from repro.core.htmlverify import HtmlVerifier
from repro.core.pipeline import FilterPipeline
from repro.core.residual_scan import CloudflareScanner
from repro.core.study import SixWeekStudy, StudyConfig, StudyReport
from repro.dns.authoritative import AuthoritativeServer
from repro.dns.cache import DnsCache
from repro.dns.client import DnsClient
from repro.dns.resolver import RecursiveResolver
from repro.faults.plan import FaultPlan
from repro.net.fabric import NetworkFabric
from repro.shard import merge
from repro.shard.runner import ProcessExecutor, ShardWorker, run_sharded_study
from repro.traffic.plane import TrafficPlane
from repro.world.config import WorldConfig
from repro.world.events import WorldEngine
from repro.world.internet import SimulatedInternet

__all__ = [
    "PhaseClock",
    "SetupDone",
    "artifact_digest",
    "install_layers",
    "run_workload",
]


class SetupDone(Exception):
    """Raised by a set-up-only trial when study day 0 is about to run."""


class PhaseClock:
    """Marks the campaign's phase boundaries without per-layer tracing.

    Monolithic and checkpointed campaigns are marked at each
    ``SixWeekStudy.run_day`` entry and at ``finalise``; a day therefore
    spans its collection, its weekly scan and the checkpoint barrier
    that closes it.  A sharded campaign is marked where the coordinator
    announces each lockstep barrier; its last mark opens the post-loop
    phase (worker payloads, merge, world replay, overlay, finalise).
    """

    def __init__(self, sharded: bool, stop_at_day0: bool = False) -> None:
        self.sharded = sharded
        self.stop_at_day0 = stop_at_day0
        self.start = 0.0
        self.end = 0.0
        self.day_marks: List[float] = []
        self.finalise_mark = 0.0
        self._patches: List[Patch] = []

    def install(self) -> None:
        if self.sharded:
            self._patch(ProcessExecutor, "call_all", self._on_call_all)
        else:
            self._patch(SixWeekStudy, "run_day", self._on_run_day)
            self._patch(SixWeekStudy, "finalise", self._on_finalise)

    def remove(self) -> None:
        while self._patches:
            self._patches.pop().restore()

    def _patch(self, owner: type, attr: str, hook) -> None:
        patch = Patch(owner, attr)
        original = patch.original

        def marked(*args, **kwargs):
            hook(*args, **kwargs)
            return original(*args, **kwargs)

        patch.apply(marked)
        self._patches.append(patch)

    def _mark_day(self) -> None:
        self.day_marks.append(time.perf_counter())
        if self.stop_at_day0:
            raise SetupDone()

    def _on_run_day(self, study, runtime) -> None:
        self._mark_day()

    def _on_finalise(self, study, runtime) -> None:
        self.finalise_mark = time.perf_counter()

    def _on_call_all(self, executor, op, argument=None) -> None:
        if op == "barrier":
            self._mark_day()

    def phases(self) -> Dict[str, object]:
        """Set-up, per-day, post-loop and total wall, in seconds."""
        marks = list(self.day_marks)
        if not self.sharded:
            marks.append(self.finalise_mark)
        days = [later - earlier for earlier, later in zip(marks, marks[1:])]
        return {
            "setup_s": self.day_marks[0] - self.start,
            "day_s": days,
            "finalise_s": self.end - marks[-1],
            "study_s": self.end - self.start,
        }


def run_workload(
    workload: Workload, seed: int, workdir: Path, clock: PhaseClock
) -> Optional[StudyReport]:
    """Run one campaign through its public entry point, phase-marked.

    Returns ``None`` for a set-up-only trial (``clock.stop_at_day0``).
    """
    clock.install()
    try:
        clock.start = time.perf_counter()
        try:
            report = _enter(workload, seed, workdir)
        except SetupDone:
            return None
        clock.end = time.perf_counter()
        return report
    finally:
        clock.remove()


def _enter(workload: Workload, seed: int, workdir: Path) -> StudyReport:
    if workload.entry == "study":
        # Exactly `repro study`: build, begin, 42 days, finalise.
        world = SimulatedInternet(
            WorldConfig(population_size=workload.population, seed=seed)
        )
        study = SixWeekStudy(world, StudyConfig())
        runtime = study.begin()
        while not runtime.finished:
            study.run_day(runtime)
        return study.finalise(runtime)
    if workload.entry == "sharded":
        return run_sharded_study(
            population=workload.population,
            seed=seed,
            config=StudyConfig(),
            shard_count=SHARD_COUNT,
            mode="process",
        )
    return run_checkpointed_study(
        workdir / "checkpoint",
        population=workload.population,
        seed=seed,
        config=StudyConfig(),
        fault_profile=workload.fault_profile,
        traffic_profile=workload.traffic_profile,
        attack_profile=workload.attack_profile,
    )


def artifact_digest(report: StudyReport) -> str:
    """SHA-256 of the byte-compared study artifact."""
    body = canonical_json(study_artifact(report))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


# -- per-layer tracing ------------------------------------------------------


def _ok(result) -> bool:
    return result.ok


def _found(result) -> bool:
    return result is not None


def _delivered(delivery) -> bool:
    return delivery.outcome == "delivered"


def _dropped(verdict) -> bool:
    return verdict.dropped


_OP_BOUNDARY = {
    "barrier": "shard.op_barrier",
    "collect": "shard.op_collect",
    # The weekly harvest broadcast is the first half of the scan step.
    "harvest_names": "shard.op_scan",
    "scan": "shard.op_scan",
    "advance": "shard.op_advance",
    "finish": "shard.op_finish",
}


def _shard_op(executor, op, argument=None) -> str:
    return _OP_BOUNDARY[op]


#: (owner, attribute, boundary name, result classifier).  Module-level
#: functions are also replaced wherever another ``repro`` module bound
#: them by name.
_LAYERS = (
    (SimulatedInternet, "__init__", "world.build", None),
    (WorldEngine, "run_day", "world.run_day", None),
    (SixWeekStudy, "begin", "core.begin", None),
    (DnsRecordCollector, "collect", "core.collect", None),
    (SixWeekStudy, "scan_day", "core.scan_day", None),
    (CloudflareScanner, "scan", "core.cf_scan", None),
    (FilterPipeline, "run", "core.pipeline_run", None),
    (HtmlVerifier, "verify", "core.verify", None),
    (SixWeekStudy, "finalise", "core.finalise", None),
    (RecursiveResolver, "resolve_many", "dns.resolve_many", None),
    (RecursiveResolver, "resolve", "dns.resolve", _ok),
    (DnsCache, "get", "dns.cache_get", _found),
    (AuthoritativeServer, "handle_query", "dns.handle_query", None),
    (DnsClient, "query", "dns.client_query", None),
    (NetworkFabric, "deliver_dns", "net.deliver_dns", _delivered),
    (NetworkFabric, "deliver_http", "net.deliver_http", None),
    (FaultPlan, "intercept_dns", "faults.intercept_dns", _dropped),
    (TrafficPlane, "admit_dns", "traffic.admit_dns", _found),
    (TrafficPlane, "drive_day", "traffic.drive_day", None),
    (AttackPlane, "admit_dns", "attacks.admit_dns", _found),
    (AttackPlane, "drive_day", "attacks.drive_day", None),
    (serde, "serialize_runtime", "checkpoint.serialize", None),
    (CheckpointStore, "append_barrier", "checkpoint.append_barrier", None),
)

_SHARD_LAYERS = (
    (ProcessExecutor, "start", "shard.start"),
    (ProcessExecutor, "call_all", _shard_op),
    (merge, "merge_payloads", "shard.merge"),
    (merge, "overlay_merged", "shard.overlay"),
)

_LAYER_NAMES = tuple(name for _, _, name, _ in _LAYERS)
_SHARD_NAMES = (
    "shard.start",
    "shard.op_barrier",
    "shard.op_collect",
    "shard.op_scan",
    "shard.op_advance",
    "shard.op_finish",
    "shard.merge",
    "shard.overlay",
)


def install_layers(tracer: Tracer, worker_dir: Path) -> None:
    """Wrap every layer boundary; forked shard workers report too.

    A worker inherits the wrappers through ``fork``; it zeroes the
    counts it inherited and, when the coordinator asks for its payload,
    writes its own counts to ``worker_dir/worker-<index>.json``.
    """
    for name in _LAYER_NAMES + _SHARD_NAMES:
        tracer.boundary(name)
    for owner, attr, name, classify in _LAYERS:
        tracer.wrap(owner, attr, name, classify, module_prefix="repro")
    for owner, attr, name in _SHARD_LAYERS:
        tracer.wrap(owner, attr, name, module_prefix="repro")

    def reporting(dispatch):
        def dispatch_and_report(worker, op, argument=None):
            result = dispatch(worker, op, argument)
            if op == "finish":
                path = worker_dir / f"worker-{worker.spec.shard_index}.json"
                path.write_text(json.dumps(tracer.snapshot()))
            return result

        return dispatch_and_report

    tracer.replace(ShardWorker, "dispatch", reporting)
    os.register_at_fork(after_in_child=tracer.reset)
