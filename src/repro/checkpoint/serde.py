"""Serialize/restore the study runtime for checkpoint barriers.

The snapshot carries the *measurement layer's* mutable state only.  The
world itself is never serialized: world dynamics draw exclusively from
label-forked RNG streams and are measurement-independent, so a resumed
process rebuilds the world from (seed, population) and replays
``day_index`` engine days to land on the identical state — then
overlays the measurement state restored here.  The replica
(:mod:`repro.checkpoint.replica`) does the replay and verifies the
replayed clock position; drift means the two processes did not share a
trajectory and the resume is refused.

The report's per-day series (:data:`SERIES`) are append-only: a day,
once measured, is never rewritten.  A barrier snapshot therefore holds
only the rows appended since the previous barrier, plus the small state
that really does change each day; :func:`fold_snapshots` folds barriers
``0..N`` back into the state a from-scratch :func:`serialize_runtime`
would give at ``N``.  One row codec serves the barrier delta, the fold,
the shard worker payload and the coordinator's overlay; decoding goes
through a :class:`NameTable`, so each distinct name or address is
parsed once per replica rather than once per row.

Everything here round-trips through JSON, with insertion order
preserved wherever order is behaviourally load-bearing (snapshot
domain maps, harvested nameservers, Incapsula canonicals).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from ..core.collector import DailySnapshot, DomainSnapshot
from ..core.pipeline import HiddenRecord, PipelineReport
from ..core.status import DpsObservation
from ..core.study import SixWeekStudy, StudyConfig, StudyRuntime
from ..dns.message import Rcode
from ..dns.name import DomainName
from ..dps.portal import ReroutingMethod
from ..errors import CheckpointCorruptError
from ..net.ipaddr import IPv4Address
from ..scenario import installed_planes

__all__ = [
    "SERDE_REGISTRY",
    "SERIES",
    "NameTable",
    "config_to_dict",
    "series_lengths",
    "report_partial_to_dict",
    "restore_report_partial",
    "serialize_runtime",
    "fold_snapshots",
    "restore_runtime",
]

#: The report's append-only per-day/per-week series, in codec order.
#: The daily loop only ever appends to them, so a barrier journals the
#: rows past its cursor and the fold concatenates them back.
SERIES = (
    "snapshots",
    "observations",
    "unmeasured_daily_counts",
    "partial_days",
    "skipped_scan_weeks",
    "cloudflare_weekly",
    "incapsula_weekly",
)

#: Every class whose mutable state this module can carry across a
#: checkpoint barrier — either through the object's own
#: ``state_dict``/``restore_state`` pair or through an inline converter
#: below.  The REP063 shard-safety rule checks mutable classes reachable
#: from the study's shard entry points against this list: stateful
#: objects that live across ``run_day`` calls but are absent here would
#: silently lose state on resume.
SERDE_REGISTRY = frozenset({
    # Carried transitively: TrafficPlane.state_dict embeds every
    # bucket level, breaker state, and the adaptive limiter's tier.
    "AdaptiveLimiter",
    # Carried via AttackPlane.state_dict: the schedule (verified, not
    # trusted), attacked-address sets, surge, tallies and counters.
    "AttackPlane",
    "CircuitBreaker",
    "DailySnapshot",
    "DnsClient",
    "DnsRecordCollector",
    "DomainSnapshot",
    "DpsObservation",
    "ExposureTimeline",
    "FaultPlan",
    "FilterPipeline",
    "HiddenRecord",
    "HtmlVerifier",
    "HttpClient",
    "IncapsulaScanner",
    # Carried transitively: RecursiveResolver.state_dict embeds the
    # quarantine roster and the metrics counters.
    "MetricsRegistry",
    "NameserverHarvest",
    "NameserverQuarantine",
    "PipelineReport",
    "RecursiveResolver",
    "StudyConfig",
    "StudyReport",
    "StudyRuntime",
    "TokenBucket",
    "TrafficPlane",
})


def config_to_dict(config: StudyConfig) -> Dict[str, object]:
    """The study config as the manifest's JSON payload."""
    return {
        "warmup_days": config.warmup_days,
        "study_days": config.study_days,
        "scan_every_days": config.scan_every_days,
        "vantage_regions": list(config.vantage_regions),
        "multicdn_flip_threshold": config.multicdn_flip_threshold,
        "run_usage_dynamics": config.run_usage_dynamics,
        "run_residual_scans": config.run_residual_scans,
        "verifier_strictness": config.verifier_strictness,
    }


# -- names -----------------------------------------------------------------


class NameTable:
    """Memoised decode of the names and addresses report rows carry.

    A campaign's rows name the same few hundred sites, nameservers and
    addresses day after day; rebuilding a :class:`DomainName` (parse,
    validate, hash) or an :class:`IPv4Address` per row made decoding the
    dominant cost of a resume or a shard overlay.  Each replica owns one
    table for its world, so decoded values are shared within a replica
    and never across worlds.  Both types are immutable, so sharing one
    instance between rows is indistinguishable from building each anew.
    """

    __slots__ = ("_names", "_addresses")

    def __init__(self) -> None:
        self._names: Dict[str, DomainName] = {}
        self._addresses: Dict[str, IPv4Address] = {}

    def name(self, text: str) -> DomainName:
        name = self._names.get(text)
        if name is None:
            name = self._names[text] = DomainName(text)
        return name

    def address(self, text: str) -> IPv4Address:
        address = self._addresses.get(text)
        if address is None:
            address = self._addresses[text] = IPv4Address(text)
        return address


# -- per-type converters ---------------------------------------------------


def _domain_to_dict(snapshot: DomainSnapshot) -> Dict[str, object]:
    return {
        "day": snapshot.day,
        "www": str(snapshot.www),
        "a": [str(address) for address in snapshot.a_records],
        "cnames": [str(target) for target in snapshot.cnames],
        "ns": [str(target) for target in snapshot.ns_targets],
        "rcode": snapshot.rcode.value,
        "measured": snapshot.measured,
    }


def _domain_from_dict(
    payload: Dict[str, object], names: NameTable
) -> DomainSnapshot:
    return DomainSnapshot(
        day=int(payload["day"]),
        www=names.name(payload["www"]),
        a_records=tuple(names.address(a) for a in payload["a"]),
        cnames=tuple(names.name(c) for c in payload["cnames"]),
        ns_targets=tuple(names.name(n) for n in payload["ns"]),
        rcode=Rcode(payload["rcode"]),
        measured=bool(payload["measured"]),
    )


def _daily_to_dict(snapshot: DailySnapshot) -> Dict[str, object]:
    # The domain map's insertion order is the collection order; keep it.
    return {
        "day": snapshot.day,
        "domains": [_domain_to_dict(d) for d in snapshot.domains.values()],
    }


def _daily_from_dict(payload: Dict[str, object], names: NameTable) -> DailySnapshot:
    daily = DailySnapshot(day=int(payload["day"]))
    for entry in payload["domains"]:
        daily.domains[entry["www"]] = _domain_from_dict(entry, names)
    return daily


def _observation_to_list(www: str, obs: DpsObservation) -> List[object]:
    return [
        www,
        obs.day,
        obs.status,
        obs.provider,
        obs.rerouting.value if obs.rerouting is not None else None,
    ]


def _observation_from_list(entry: List[object]) -> DpsObservation:
    www, day, status, provider, rerouting = entry
    return DpsObservation(
        www=www,
        day=int(day),
        status=status,
        provider=provider,
        rerouting=ReroutingMethod(rerouting) if rerouting is not None else None,
    )


def _observations_to_list(day: Dict[str, DpsObservation]) -> List[List[object]]:
    return [_observation_to_list(www, obs) for www, obs in day.items()]


def _observations_from_list(
    day: List[List[object]], names: NameTable
) -> Dict[str, DpsObservation]:
    return {entry[0]: _observation_from_list(entry) for entry in day}


def _pipeline_to_dict(report: PipelineReport) -> Dict[str, object]:
    return {
        "provider": report.provider,
        "week": report.week,
        "retrieved": report.retrieved,
        "dropped_ip_filter": report.dropped_ip_filter,
        "dropped_a_filter": report.dropped_a_filter,
        "hidden": [
            [r.www, r.provider, str(r.address), r.verified_origin, r.reason]
            for r in report.hidden
        ],
    }


def _pipeline_from_dict(
    payload: Dict[str, object], names: NameTable
) -> PipelineReport:
    return PipelineReport(
        provider=payload["provider"],
        week=int(payload["week"]),
        retrieved=int(payload["retrieved"]),
        dropped_ip_filter=int(payload["dropped_ip_filter"]),
        dropped_a_filter=int(payload["dropped_a_filter"]),
        hidden=[
            HiddenRecord(www, provider, names.address(address), bool(verified), reason)
            for www, provider, address, verified, reason in payload["hidden"]
        ],
    )


def _int_row(value: object, names: Optional[NameTable] = None) -> int:
    return int(value)


#: series -> (encode one row, decode one row through a NameTable).
_ROW_CODEC = {
    "snapshots": (_daily_to_dict, _daily_from_dict),
    "observations": (_observations_to_list, _observations_from_list),
    "unmeasured_daily_counts": (_int_row, _int_row),
    "partial_days": (_int_row, _int_row),
    "skipped_scan_weeks": (_int_row, _int_row),
    "cloudflare_weekly": (_pipeline_to_dict, _pipeline_from_dict),
    "incapsula_weekly": (_pipeline_to_dict, _pipeline_from_dict),
}


# -- report (daily-loop partial) -------------------------------------------


def series_lengths(report) -> Dict[str, int]:
    """How many rows each append-only series holds: a row cursor."""
    return {series: len(getattr(report, series)) for series in SERIES}


def report_partial_to_dict(
    report, since: Optional[Mapping[str, int]] = None
) -> Dict[str, object]:
    """The report fields the daily loop accumulates, as JSON primitives.

    With ``since`` (a :func:`series_lengths` cursor) each series carries
    only the rows appended after the cursor — a barrier's delta; without
    it, every row — the shard worker's payload unit.  Derived analyses
    (adoption, pauses, exposure summary, ground truth) are excluded:
    :meth:`SixWeekStudy.finalise` recomputes them from this state.
    ``partial_scan_weeks`` is a per-week tally a later scan may raise,
    so it is always carried whole.
    """
    partial: Dict[str, object] = {}
    for series in SERIES:
        encode = _ROW_CODEC[series][0]
        start = since[series] if since is not None else 0
        partial[series] = [encode(row) for row in getattr(report, series)[start:]]
    partial["partial_scan_weeks"] = sorted(
        [week, count] for week, count in report.partial_scan_weeks.items()
    )
    return partial


def restore_report_partial(
    report, partial: Dict[str, object], names: Optional[NameTable] = None
) -> None:
    """Overlay a whole :func:`report_partial_to_dict` payload onto a report.

    Names and addresses decode through ``names`` — the replica's table —
    or a fresh one.
    """
    names = names if names is not None else NameTable()
    for series in SERIES:
        decode = _ROW_CODEC[series][1]
        setattr(report, series, [decode(row, names) for row in partial[series]])
    report.partial_scan_weeks = {
        int(week): int(count)
        for week, count in partial["partial_scan_weeks"]
    }


# -- runtime ---------------------------------------------------------------


def serialize_runtime(
    study: SixWeekStudy,
    runtime: StudyRuntime,
    since: Optional[Mapping[str, int]] = None,
) -> Dict[str, object]:
    """The barrier snapshot: the rows since ``since`` plus the small state.

    ``since`` is the row cursor of the previous barrier (``None``: every
    row, the whole state a resumed process must restore).  Only fields
    the daily loop *mutates* are captured; everything the post-loop
    analyses derive (adoption, pauses, exposure summary, ground truth)
    is recomputed by :meth:`SixWeekStudy.finalise` on the restored state.
    """
    world = study.world
    return {
        "clock_now": world.clock.now,
        "day_index": runtime.day_index,
        "study_start_day": runtime.study_start_day,
        "report": report_partial_to_dict(runtime.report, since),
        "collector": runtime.collector.state_dict(),
        "verifier": runtime.verifier.state_dict(),
        "harvest": runtime.harvest.state_dict(),
        "exposure": runtime.exposure.state_dict(),
        "incap_scanner": (
            runtime.incap_scanner.state_dict()
            if runtime.incap_scanner is not None
            else None
        ),
        "cf_pipeline": (
            runtime.cf_pipeline.state_dict()
            if runtime.cf_pipeline is not None
            else None
        ),
        "incap_pipeline": (
            runtime.incap_pipeline.state_dict()
            if runtime.incap_pipeline is not None
            else None
        ),
        "vantage_clients": [c.state_dict() for c in runtime.vantage_clients],
        "scan_pop_totals": sorted(
            [pop, count] for pop, count in runtime.scan_pop_totals.items()
        ),
        "planes": {
            field: plane.state_dict() if plane is not None else None
            for field, plane in installed_planes(world).items()
        },
    }


def fold_snapshots(
    snapshots: Sequence[Dict[str, object]],
    lengths: Sequence[Mapping[str, int]],
) -> Dict[str, object]:
    """Fold barrier snapshots ``0..N`` into barrier ``N``'s whole state.

    The result equals what :func:`serialize_runtime` without a cursor
    would have written at barrier ``N``: every series is the
    concatenation of the barriers' deltas, everything else is barrier
    ``N``'s.  ``lengths[k]`` is the cumulative row count barrier ``k``'s
    journal record committed; a delta that does not continue its
    predecessor exactly raises :class:`CheckpointCorruptError`.
    """
    rows: Dict[str, List[object]] = {series: [] for series in SERIES}
    for barrier, (snapshot, committed) in enumerate(zip(snapshots, lengths)):
        for series in SERIES:
            rows[series].extend(snapshot["report"][series])
        folded = {series: len(rows[series]) for series in SERIES}
        if folded != dict(committed):
            raise CheckpointCorruptError(
                f"barrier {barrier} snapshot folds to series lengths "
                f"{folded} but its journal record committed {dict(committed)}; "
                "the barrier deltas do not continue one another"
            )
    last = snapshots[-1]
    return dict(last, report=dict(last["report"], **rows))


def restore_runtime(
    study: SixWeekStudy,
    runtime: StudyRuntime,
    state: Dict[str, object],
    names: Optional[NameTable] = None,
) -> None:
    """Overlay a whole (folded) barrier state onto a runtime.

    ``runtime`` must come from :meth:`SixWeekStudy.begin` on a world
    rebuilt with the checkpoint's inputs and replayed to the snapshot's
    day — :meth:`repro.checkpoint.replica.Replica.seek` does both and
    checks the replayed clock.
    """
    if int(state["study_start_day"]) != runtime.study_start_day:
        raise CheckpointCorruptError(
            f"replayed world starts its study at day {runtime.study_start_day} "
            f"but the snapshot was taken in a study starting at day "
            f"{state['study_start_day']}"
        )
    runtime.day_index = int(state["day_index"])

    restore_report_partial(runtime.report, state["report"], names)

    runtime.collector.restore_state(state["collector"])
    runtime.verifier.restore_state(state["verifier"])
    runtime.harvest.restore_state(state["harvest"])
    runtime.exposure.restore_state(state["exposure"])
    _restore_optional(runtime.incap_scanner, state["incap_scanner"], "incap_scanner")
    _restore_optional(runtime.cf_pipeline, state["cf_pipeline"], "cf_pipeline")
    _restore_optional(runtime.incap_pipeline, state["incap_pipeline"], "incap_pipeline")
    clients = runtime.vantage_clients
    saved_clients = state["vantage_clients"]
    if len(clients) != len(saved_clients):
        raise CheckpointCorruptError(
            f"snapshot holds {len(saved_clients)} vantage clients, the "
            f"rebuilt runtime has {len(clients)}"
        )
    for client, saved in zip(clients, saved_clients):
        client.restore_state(saved)
    runtime.scan_pop_totals = {
        pop: int(count) for pop, count in state["scan_pop_totals"]
    }

    for field, plane in installed_planes(study.world).items():
        _restore_optional(plane, state["planes"][field], f"{field} plane")


def _restore_optional(obj: Optional[object], saved: Optional[object], name: str) -> None:
    if (obj is None) != (saved is None):
        raise CheckpointCorruptError(
            f"snapshot and rebuilt runtime disagree about {name!r}; the "
            "resume was given a different configuration or scenario"
        )
    if obj is not None:
        obj.restore_state(saved)
