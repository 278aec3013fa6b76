"""The ``repro bench`` harness: one study day with query-plane counters.

Runs the first day of the six-week study — the same
:meth:`~repro.core.study.SixWeekStudy.collect_day` and
:meth:`~repro.core.study.SixWeekStudy.scan_day` phases every campaign
runs — and reports the work each phase did:

* **E1 — daily collection** (§IV-B-1): day 0's cache-purged
  A/CNAME/NS collection pass over the whole population, batched through
  :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many`.
* **E8 — residual scan** (§V / Fig. 8): day 0 is a scan day, so the
  nameserver harvest, the Cloudflare direct-query sweep, the Incapsula
  CNAME tracker and the filter pipeline run as the study runs them —
  plus a *batched vs. naive* resolution comparison over the scan's
  recursive-resolution names, proving the zone-cut memo's query saving
  with the counters themselves.

The result dict is what ``repro bench`` serialises to
``BENCH_<label>.json``: counter totals, workload shapes, and wall time,
so the repository's perf trajectory has real data points.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core.study import SixWeekStudy, StudyConfig
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..obs.metrics import MetricsRegistry
from ..scenario import Scenario
from ..world.internet import SimulatedInternet

__all__ = ["run_bench", "compare_query_paths"]


def _wall_now() -> float:
    """Wall-clock seconds (monotonic).

    The single sanctioned wall-clock read in the library: the bench
    harness reports how long workloads take on real hardware.  The value
    is *reported only* — nothing in the simulation consumes it, so
    determinism is unaffected (suppressed REP002).
    """
    return time.perf_counter()  # repro: allow[REP002] -- reported only; nothing in the simulation consumes the value


def compare_query_paths(
    world: SimulatedInternet,
    pairs: List[Tuple[DomainName, RecordType]],
) -> Dict[str, Dict[str, float]]:
    """Resolve ``pairs`` batched and naively; report queries per name.

    *Batched* uses one resolver and one
    :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many` call, so
    the batch shares the TTL cache and the per-batch zone-cut memo.
    *Naive* resolves each name with no shared state (cache purged
    between names) — the one-resolver-per-lookup pattern the hot callers
    used to approximate, re-walking root/TLD for every single name.
    """
    outcomes: Dict[str, Dict[str, float]] = {}

    batched_resolver = world.make_resolver()
    batched_results = batched_resolver.resolve_many(pairs)
    outcomes["batched"] = _query_cost(
        batched_resolver.queries_sent, batched_results
    )

    naive_resolver = world.make_resolver()
    naive_results = []
    for name, rtype in pairs:
        naive_resolver.purge_cache()
        naive_results.append(naive_resolver.resolve(name, rtype))
    outcomes["naive"] = _query_cost(naive_resolver.queries_sent, naive_results)
    return outcomes


def _query_cost(queries_sent: int, results) -> Dict[str, float]:
    resolved = sum(1 for result in results if result.ok)
    return {
        "names": len(results),
        "resolved": resolved,
        "queries_sent": queries_sent,
        "queries_per_resolved": queries_sent / max(1, resolved),
    }


def run_bench(  # repro: allow[REP040] -- timing real hardware is the bench's purpose; wall times are reported, never fed back into the simulation
    world: SimulatedInternet,
    warmup_days: int = 7,
    label: Optional[str] = None,
    traffic: Optional[str] = None,
    attacks: Optional[str] = None,
) -> Dict[str, object]:
    """Run study day 0's collection (E1) and scan (E8); return the payload.

    The day runs through ``SixWeekStudy(world, StudyConfig(warmup_days,
    study_days=1))``: :meth:`~repro.core.study.SixWeekStudy.begin` (the
    warm-up, timed as ``bench.warmup``), then ``collect_day`` and
    ``scan_day``.  ``traffic`` names a background-load profile to
    install before the warm-up; the day then runs against a fleet under
    load, and the payload grows a ``traffic`` section with the plane's
    tallies and defense counters.  ``attacks`` names a DDoS campaign to
    schedule the same way; the payload then grows an ``attacks`` section
    with the schedule and wave counters.  With both ``None`` (the
    default) the payload — E1 counters included — is byte-identical to a
    pre-plane bench, which is exactly what the CI equivalence gate
    compares.
    """
    bench_label = label or f"p{len(world.population)}"
    started = _wall_now()
    metrics = MetricsRegistry()

    Scenario(traffic=traffic, attacks=attacks).install(world)
    traffic_plane = world.fabric.traffic_plane
    attack_plane = world.fabric.attack_plane

    study = SixWeekStudy(
        world, StudyConfig(warmup_days=warmup_days, study_days=1)
    )
    with metrics.timer("bench.warmup", world.clock):
        runtime = study.begin()

    # -- E1: day 0's collection ----------------------------------------
    e1_started = _wall_now()
    study.collect_day(runtime)
    report = runtime.report
    metrics.merge(runtime.collection_resolver.metrics)
    e1 = {
        "hostnames": len(runtime.hostnames),
        "resolved": sum(1 for domain in report.snapshots[0] if domain.resolved),
        "counters": metrics.snapshot(),
        "wall_seconds": _wall_now() - e1_started,
    }

    # -- E8: day 0's residual scan -------------------------------------
    e8_started = _wall_now()
    study.scan_day(runtime)
    cf_weekly = report.cloudflare_weekly[0] if report.cloudflare_weekly else None
    incap_weekly = report.incapsula_weekly[0] if report.incapsula_weekly else None
    incap_canonicals: List[DomainName] = (
        list(runtime.incap_scanner.known_canonicals)
        if runtime.incap_scanner is not None
        else []
    )
    scan_metrics = MetricsRegistry()
    for client in runtime.vantage_clients:
        scan_metrics.merge(client.metrics)

    # The scan's recursive-resolution name set: harvested nameserver
    # hostnames plus collected canonicals — sibling-heavy, exactly where
    # the zone-cut memo pays off.  Both paths resolve the same names on
    # the same world day the scan ran.
    comparison_pairs = [
        (hostname, RecordType.A) for hostname in runtime.harvest.hostnames
    ] + [(canonical, RecordType.A) for canonical in incap_canonicals]
    comparison = (
        compare_query_paths(world, comparison_pairs)
        if comparison_pairs
        else {}
    )

    e8 = {
        "harvested_nameservers": len(runtime.harvest),
        "cloudflare_retrieved": cf_weekly.retrieved if cf_weekly else 0,
        "cloudflare_hidden": cf_weekly.hidden_count if cf_weekly else 0,
        "incapsula_canonicals": len(incap_canonicals),
        "incapsula_retrieved": incap_weekly.retrieved if incap_weekly else 0,
        "incapsula_hidden": incap_weekly.hidden_count if incap_weekly else 0,
        "counters": scan_metrics.snapshot(),
        "query_path_comparison": comparison,
        "wall_seconds": _wall_now() - e8_started,
    }

    payload = {
        "label": bench_label,
        "population": len(world.population),
        "seed": world.config.seed,
        "warmup_days": warmup_days,
        "sim_day": world.clock.day,
        "warmup_sim_seconds": metrics.value("bench.warmup.sim_seconds"),
        "e1_collection": e1,
        "e8_residual_scan": e8,
        "wall_seconds_total": _wall_now() - started,
    }
    if traffic_plane is not None:
        payload["traffic"] = {
            "profile": traffic,
            "tier": traffic_plane.tier,
            "tallies": {
                name: traffic_plane.tallies[name]
                for name in sorted(traffic_plane.tallies)
            },
            "defense_counters": traffic_plane.metrics.snapshot(),
        }
    if attack_plane is not None:
        payload["attacks"] = {
            "profile": attacks,
            "events": [event.as_dict() for event in attack_plane.events],
            "surge": attack_plane.traffic_surge,
            "tallies": {
                name: attack_plane.tallies[name]
                for name in sorted(attack_plane.tallies)
            },
            "flood_counters": attack_plane.metrics.snapshot(),
        }
    return payload
