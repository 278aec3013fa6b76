"""Byte-identical aggregation of per-shard campaign state.

Every value a shard worker ships home is either *positional* (per-day
series, weekly pipeline reports) or *set-like* (harvests, quarantine
rosters, counters).  The merge rules follow directly:

* positional values merge **in shard order** — shard slices are
  contiguous in hostname order, so concatenating shard 0's domains
  before shard 1's reproduces the monolithic collection order exactly;
* set-like values merge in **canonical (sorted) order**, which is
  independent of how the observations were partitioned;
* scalar tallies (unmeasured counts, pipeline drop counters, metrics)
  are commutative sums.

Merging is pure dictionary arithmetic over the same JSON payload shape
the checkpoint plane serializes (:mod:`repro.checkpoint.serde`), so the
coordinator can overlay the merged state onto a freshly begun monolithic
runtime and hand it to :meth:`SixWeekStudy.finalise` — the analyses then
run on state byte-identical to a single-process campaign's.

Every structural disagreement between payloads (mismatched topologies,
missing shards, diverging lockstep positions) raises
:class:`~repro.errors.ShardError`: two workers that disagree cannot have
replayed the same world.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..checkpoint.serde import (
    NameTable,
    report_partial_to_dict,
    restore_report_partial,
)
from ..core.study import SixWeekStudy, StudyRuntime
from ..errors import ShardError
from ..faults.quarantine import NameserverQuarantine
from ..markers import pure_function
from ..scenario import drive_states, require_agreement

__all__ = ["worker_payload", "merge_payloads", "overlay_merged"]

#: Bump on any incompatible change to the worker payload layout.
PAYLOAD_VERSION = 4


def worker_payload(study: SixWeekStudy, runtime: StudyRuntime) -> Dict[str, object]:
    """Everything one finished shard contributes to the merged campaign.

    Shipped by a worker (over a pipe, or returned inline) after its last
    study day; JSON-compatible so transports and tests can canonicalise
    it byte-stably.
    """
    report = runtime.report
    resolver = runtime.collection_resolver
    return {
        "payload_version": PAYLOAD_VERSION,
        "shard": {"index": runtime.shard_index, "count": runtime.shard_count},
        "population": report.population_size,
        "study_start_day": runtime.study_start_day,
        "day_index": runtime.day_index,
        "clock_now": study.world.clock.now,
        "report": report_partial_to_dict(report),
        "harvest": runtime.harvest.state_dict(),
        "exposure": runtime.exposure.state_dict(),
        "scan_pop_totals": sorted(
            [pop, count] for pop, count in runtime.scan_pop_totals.items()
        ),
        "quarantine": [list(entry) for entry in resolver.quarantine.snapshot()],
        "metrics": resolver.metrics.snapshot(),
        # World-side state: the traffic and attack planes are driven
        # identically by every replica, so this merges by agreement (see
        # _validate_topology), never by summation — summing replicated
        # tallies would inflate the load by the shard count.
        "planes": drive_states(study.world),
    }


@pure_function
def merge_payloads(payloads: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-shard payloads into one monolithic-shaped payload.

    ``payloads`` may arrive in any order; they are merged in shard-index
    order, so the result is independent of worker completion order.  The
    merged payload has ``shard = {index: 0, count: 1}`` — it *is* the
    state a single worker measuring the whole population would have
    shipped.
    """
    if not payloads:
        raise ShardError("nothing to merge: no worker payloads")
    ordered = _validate_topology(payloads)

    merged_report = _merge_report_partials(
        [payload["report"] for payload in ordered]
    )

    harvest: set = set()
    for payload in ordered:
        harvest.update(payload["harvest"])

    exposure = _merge_exposure([payload["exposure"] for payload in ordered])

    pop_totals: Dict[str, int] = {}
    for payload in ordered:
        for pop, count in payload["scan_pop_totals"]:
            pop_totals[pop] = pop_totals.get(pop, 0) + int(count)

    metrics: Dict[str, int] = {}
    for payload in ordered:
        for name, value in payload["metrics"].items():
            metrics[name] = metrics.get(name, 0) + int(value)

    quarantine = NameserverQuarantine.merge_snapshots(
        payload["quarantine"] for payload in ordered
    )

    first = ordered[0]
    return {
        "payload_version": PAYLOAD_VERSION,
        "shard": {"index": 0, "count": 1},
        "population": first["population"],
        "study_start_day": first["study_start_day"],
        "day_index": first["day_index"],
        "clock_now": first["clock_now"],
        "report": merged_report,
        "harvest": sorted(harvest),
        "exposure": exposure,
        "scan_pop_totals": sorted([pop, pop_totals[pop]] for pop in pop_totals),
        "quarantine": [list(entry) for entry in quarantine],
        "metrics": {name: metrics[name] for name in sorted(metrics)},
        "planes": first["planes"],
    }


def overlay_merged(
    study: SixWeekStudy,
    runtime: StudyRuntime,
    merged: Dict[str, object],
    names: Optional[NameTable] = None,
) -> None:
    """Seat the merged campaign state in a coordinator runtime.

    ``runtime`` must come from an *unsharded* :meth:`SixWeekStudy.begin`
    on a world rebuilt from the same ``(seed, population)`` and replayed
    ``day_index`` engine days — the shard-runner's analogue of the
    checkpoint plane's world replay.  The merged rows decode through
    ``names``, the coordinator replica's name table.  After the overlay,
    :meth:`SixWeekStudy.finalise` produces the campaign report.
    """
    if runtime.shard_count != 1:
        raise ShardError(
            "merged state overlays onto an unsharded coordinator runtime, "
            f"not shard {runtime.shard_index} of {runtime.shard_count}"
        )
    if int(merged["study_start_day"]) != runtime.study_start_day:
        raise ShardError(
            f"coordinator world starts its study at day "
            f"{runtime.study_start_day} but the workers measured a study "
            f"starting at day {merged['study_start_day']}"
        )
    runtime.day_index = int(merged["day_index"])
    restore_report_partial(runtime.report, merged["report"], names)
    runtime.harvest.restore_state(merged["harvest"])
    runtime.exposure.restore_state(merged["exposure"])
    runtime.scan_pop_totals = {
        pop: int(count) for pop, count in merged["scan_pop_totals"]
    }
    resolver = runtime.collection_resolver
    resolver.quarantine.restore(
        (address, int(at), int(due))
        for address, at, due in merged["quarantine"]
    )
    resolver.metrics.restore(merged["metrics"])
    require_agreement(
        drive_states(study.world),
        merged["planes"],
        "the coordinator's replayed world and the workers",
    )


# -- internals -------------------------------------------------------------


def _validate_topology(
    payloads: Sequence[Dict[str, object]],
) -> List[Dict[str, object]]:
    """Check the payloads form one complete lockstep campaign; sort them."""
    count = len(payloads)
    for payload in payloads:
        if payload.get("payload_version") != PAYLOAD_VERSION:
            raise ShardError(
                f"worker payload version {payload.get('payload_version')!r} "
                f"is not the supported version {PAYLOAD_VERSION}"
            )
        shard = payload["shard"]
        if int(shard["count"]) != count:
            raise ShardError(
                f"shard {shard['index']} believes the topology has "
                f"{shard['count']} shard(s); {count} payload(s) arrived"
            )
    ordered = sorted(payloads, key=lambda p: int(p["shard"]["index"]))
    indices = [int(p["shard"]["index"]) for p in ordered]
    if indices != list(range(count)):
        raise ShardError(
            f"payload shard indices {indices} do not cover 0..{count - 1} "
            "exactly once"
        )
    for key in ("population", "study_start_day", "day_index", "clock_now"):
        values = {int(p[key]) for p in ordered}
        if len(values) > 1:
            raise ShardError(
                f"workers disagree on {key}: {sorted(values)}; they cannot "
                "have replayed the same world in lockstep"
            )
    # The traffic and attack planes are world-side state every replica
    # drives in lockstep; their drive states join the must-agree family.
    for payload in ordered[1:]:
        require_agreement(ordered[0]["planes"], payload["planes"], "workers")
    return ordered


@pure_function
def _merge_report_partials(
    partials: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge per-shard report payloads (shard order = hostname order)."""
    first = partials[0]
    for key in ("snapshots", "observations", "unmeasured_daily_counts"):
        lengths = {len(p[key]) for p in partials}
        if len(lengths) > 1:
            raise ShardError(
                f"workers recorded different numbers of days in {key}: "
                f"{sorted(lengths)}"
            )

    snapshots: List[Dict[str, object]] = []
    for day_position in range(len(first["snapshots"])):
        per_shard = [p["snapshots"][day_position] for p in partials]
        days = {int(s["day"]) for s in per_shard}
        if len(days) > 1:
            raise ShardError(
                f"snapshot position {day_position} spans clock days "
                f"{sorted(days)} across shards; collection fell out of "
                "lockstep"
            )
        snapshots.append(
            {
                "day": per_shard[0]["day"],
                "domains": [
                    domain for s in per_shard for domain in s["domains"]
                ],
            }
        )

    observations = [
        [entry for p in partials for entry in p["observations"][day_position]]
        for day_position in range(len(first["observations"]))
    ]

    unmeasured = [
        sum(int(p["unmeasured_daily_counts"][day_position]) for p in partials)
        for day_position in range(len(first["unmeasured_daily_counts"]))
    ]

    # A day is partial when *any* site went unmeasured — the union of the
    # per-shard verdicts.  Days are absolute clock days, so the sorted
    # union reproduces the monolithic append order.
    partial_days = sorted(
        {int(day) for p in partials for day in p["partial_days"]}
    )

    # Per-week throttled-hostname counts sum: each shard's slice of the
    # population is disjoint, so its throttled hostnames are too.
    partial_scans: Dict[int, int] = {}
    for p in partials:
        for week, count in p["partial_scan_weeks"]:
            week = int(week)
            partial_scans[week] = partial_scans.get(week, 0) + int(count)

    # The skip decision is a function of broadcast state (the merged
    # harvest) and world state, both identical across workers; diverging
    # skip lists mean the lockstep broke.
    skipped = [list(p["skipped_scan_weeks"]) for p in partials]
    if any(weeks != skipped[0] for weeks in skipped[1:]):
        raise ShardError(
            f"workers disagree on skipped scan weeks: {skipped}; the "
            "harvest broadcast cannot have reached every worker"
        )

    return {
        "snapshots": snapshots,
        "observations": observations,
        "unmeasured_daily_counts": unmeasured,
        "partial_days": partial_days,
        "skipped_scan_weeks": skipped[0],
        "partial_scan_weeks": sorted(
            [week, partial_scans[week]] for week in partial_scans
        ),
        "cloudflare_weekly": _merge_weekly(
            [p["cloudflare_weekly"] for p in partials]
        ),
        "incapsula_weekly": _merge_weekly(
            [p["incapsula_weekly"] for p in partials]
        ),
    }


@pure_function
def _merge_weekly(
    per_shard_weeks: Sequence[List[Dict[str, object]]],
) -> List[Dict[str, object]]:
    """Merge weekly pipeline reports: counts sum, hidden lists concat."""
    lengths = {len(weeks) for weeks in per_shard_weeks}
    if len(lengths) > 1:
        raise ShardError(
            f"workers ran different numbers of weekly sweeps: {sorted(lengths)}"
        )
    merged: List[Dict[str, object]] = []
    for position in range(len(per_shard_weeks[0])):
        reports = [weeks[position] for weeks in per_shard_weeks]
        identities = {(r["provider"], int(r["week"])) for r in reports}
        if len(identities) > 1:
            raise ShardError(
                f"weekly sweep position {position} mixes "
                f"{sorted(identities)} across shards"
            )
        merged.append(
            {
                "provider": reports[0]["provider"],
                "week": reports[0]["week"],
                "retrieved": sum(int(r["retrieved"]) for r in reports),
                "dropped_ip_filter": sum(
                    int(r["dropped_ip_filter"]) for r in reports
                ),
                "dropped_a_filter": sum(
                    int(r["dropped_a_filter"]) for r in reports
                ),
                "hidden": [entry for r in reports for entry in r["hidden"]],
            }
        )
    return merged


@pure_function
def _merge_exposure(
    per_shard_weeks: Sequence[List[List[str]]],
) -> List[List[str]]:
    """Merge exposure timelines: per-week sorted union of verified sets."""
    lengths = {len(weeks) for weeks in per_shard_weeks}
    if len(lengths) > 1:
        raise ShardError(
            f"workers recorded different numbers of exposure weeks: "
            f"{sorted(lengths)}"
        )
    return [
        sorted({site for weeks in per_shard_weeks for site in weeks[position]})
        for position in range(len(per_shard_weeks[0]))
    ]
