"""The ``repro bench`` harness: E1/E8 workloads with query-plane counters.

Runs the two hot workloads every experiment in the paper funnels
through, against a fully wired world, with a shared
:class:`~repro.obs.metrics.MetricsRegistry` threaded through every
resolver and scanner:

* **E1 — daily collection** (§IV-B-1): one cache-purged A/CNAME/NS
  collection pass over the whole population, batched through
  :meth:`~repro.dns.resolver.RecursiveResolver.resolve_many`.
* **E8 — residual scan** (§V / Fig. 8): nameserver harvest, the
  Cloudflare direct-query sweep, the Incapsula CNAME tracker, and the
  filter pipeline — plus a *batched vs. naive* resolution comparison
  over the scan's recursive-resolution names, proving the zone-cut
  memo's query saving with the counters themselves.

The result dict is what ``repro bench`` serialises to
``BENCH_<label>.json``: counter totals, workload shapes, and wall time,
so the repository's perf trajectory has real data points.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.collector import DnsRecordCollector
from ..core.htmlverify import HtmlVerifier
from ..core.matching import ProviderMatcher
from ..core.pipeline import FilterPipeline
from ..core.residual_scan import CloudflareScanner, IncapsulaScanner, NameserverHarvest
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..net.geo import PAPER_VANTAGE_REGIONS
from ..obs.metrics import MetricsRegistry
from ..scenario import Scenario
from ..world.internet import SimulatedInternet

__all__ = ["run_bench", "compare_query_paths", "run_shard_scaling"]


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


def _measure_slice(
    world: SimulatedInternet, hostnames: List[str]
) -> Tuple[int, int]:
    """One worker's share of the E1 collection: (resolved, queries_sent)."""
    resolver = world.make_resolver()
    collector = DnsRecordCollector(resolver)
    snapshot = collector.collect(hostnames, day=world.clock.day)
    resolved = sum(1 for domain in snapshot if domain.resolved)
    return resolved, resolver.queries_sent


def _scaling_worker(connection, world, hostnames) -> None:
    """Forked-child entrypoint: measure one slice, ship the tallies home."""
    try:
        connection.send(("ok", _measure_slice(world, hostnames)))
    except Exception as exc:  # repro: allow[REP021] -- a forked measurement child must report failure over the pipe, not die silently
        connection.send(("error", f"{type(exc).__name__}: {exc}"))
    finally:
        connection.close()


def run_shard_scaling(  # repro: allow[REP040] -- wall-clock scaling curve is the measurement itself; reported only, never fed back into the simulation
    world: SimulatedInternet,
    *,
    shard_counts: Sequence[int] = (1, 2, 4, 8),
) -> Dict[str, object]:
    """Wall-time the sharded E1 collection at each worker count.

    For each entry in ``shard_counts`` the population's hostname list is
    partitioned with the same contiguous balanced bounds the shard
    runner uses, and every slice is collected by a worker forked *after*
    the world was built — the copy-on-write fork shares the parent's
    world, so the expensive build is paid once and the parent's replica
    is never mutated, making every point measure an identical workload.
    On platforms without ``fork`` the slices run sequentially in-process
    (no parallelism, but the same per-slice work), recorded as
    ``mode="sequential"``.

    The per-point resolver tallies (``resolved``, ``queries_sent``) are
    deterministic functions of (population, seed, day, worker count) —
    queries grow with the worker count because each worker's resolver
    has its own TTL cache — so they double as a cross-machine identity
    check on the curve.  Wall seconds and ``cpus`` are reported only.
    """
    # Imported lazily: core.study reaches back into this package for
    # MetricsRegistry, and a top-level import would close the cycle
    # through obs/__init__ while this module is still initialising.
    from ..core.study import shard_bounds
    from ..errors import ShardError

    hostnames = [str(site.www) for site in world.population]
    can_fork = "fork" in multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork") if can_fork else None

    points: List[Dict[str, object]] = []
    for count in shard_counts:
        slices = [
            hostnames[slice(*shard_bounds(len(hostnames), index, count))]
            for index in range(count)
        ]
        started = _wall_now()
        resolved = queries = 0
        if context is not None:
            processes = []
            pipes = []
            for names in slices:
                parent_end, child_end = context.Pipe()
                process = context.Process(
                    target=_scaling_worker, args=(child_end, world, names)
                )
                process.start()
                child_end.close()
                processes.append(process)
                pipes.append(parent_end)
            errors: List[str] = []
            for parent_end in pipes:
                try:
                    kind, value = parent_end.recv()
                except EOFError:
                    kind, value = "error", "worker died without reporting"
                if kind == "ok":
                    resolved += value[0]
                    queries += value[1]
                else:
                    errors.append(str(value))
                parent_end.close()
            for process in processes:
                process.join()
            if errors:
                raise ShardError(
                    f"shard-scaling worker(s) failed at {count} worker(s): "
                    + "; ".join(errors)
                )
        else:
            for names in slices:
                slice_resolved, slice_queries = _measure_slice(world, names)
                resolved += slice_resolved
                queries += slice_queries
        points.append(
            {
                "workers": count,
                "mode": "fork" if context is not None else "sequential",
                "resolved": resolved,
                "queries_sent": queries,
                "wall_seconds": _wall_now() - started,
            }
        )

    return {
        "population": len(hostnames),
        "seed": world.config.seed,
        "sim_day": world.clock.day,
        "cpus": os.cpu_count() or 1,
        "points": points,
    }


def run_bench(  # repro: allow[REP040] -- timing real hardware is the bench's purpose; wall times are reported, never fed back into the simulation
    world: SimulatedInternet,
    warmup_days: int = 7,
    label: Optional[str] = None,
    traffic: Optional[str] = None,
    attacks: Optional[str] = None,
) -> Dict[str, object]:
    """Run the E1/E8 workloads and return the BENCH payload.

    ``traffic`` names a background-load profile to install before the
    warm-up; the E1/E8 workloads then run against a fleet under load,
    and the payload grows a ``traffic`` section with the plane's tallies
    and defense counters.  ``attacks`` names a DDoS campaign to schedule
    the same way; the payload then grows an ``attacks`` section with the
    schedule and wave counters.  With both ``None`` (the default) the
    payload — E1 counters included — is byte-identical to a pre-plane
    bench, which is exactly what the CI equivalence gate compares.
    """
    bench_label = label or f"p{len(world.population)}"
    started = _wall_now()
    metrics = MetricsRegistry()

    Scenario(traffic=traffic, attacks=attacks).install(world)
    traffic_plane = world.fabric.traffic_plane
    attack_plane = world.fabric.attack_plane

    with metrics.timer("bench.warmup", world.clock):
        world.engine.run_days(warmup_days)

    hostnames = [str(site.www) for site in world.population]

    # -- E1: daily collection ------------------------------------------
    e1_started = _wall_now()
    collector = DnsRecordCollector(world.make_resolver(metrics=metrics))
    snapshot = collector.collect(hostnames, day=world.clock.day)
    e1 = {
        "hostnames": len(hostnames),
        "resolved": sum(1 for domain in snapshot if domain.resolved),
        "counters": metrics.snapshot(),
        "wall_seconds": _wall_now() - e1_started,
    }

    # -- E8: residual scan ---------------------------------------------
    e8_started = _wall_now()
    scan_metrics = MetricsRegistry()
    matcher = ProviderMatcher(world.specs, world.routeviews)
    verifier = HtmlVerifier(world.http_client(PAPER_VANTAGE_REGIONS[0]))

    harvest = NameserverHarvest()
    harvest.ingest([snapshot])
    ns_ips = harvest.resolve_addresses(
        world.make_resolver(metrics=scan_metrics)
    )

    cf_retrieved = cf_hidden = 0
    if ns_ips and "cloudflare" in world.providers:
        scanner = CloudflareScanner(
            ns_ips,
            [world.dns_client(region) for region in PAPER_VANTAGE_REGIONS],
            rng=world.rng.fork("bench-e8-scan"),
            metrics=scan_metrics,
        )
        retrieved = scanner.scan(hostnames)
        cf_retrieved = len(retrieved)
        pipeline = FilterPipeline(
            world.provider("cloudflare").prefixes,
            world.make_resolver(metrics=scan_metrics),
            verifier,
        )
        cf_report = pipeline.run(retrieved, "cloudflare", week=0)
        cf_hidden = cf_report.hidden_count

    incap_retrieved = incap_hidden = 0
    incap_canonicals: List[DomainName] = []
    if "incapsula" in world.providers:
        incap_scanner = IncapsulaScanner(
            world.make_resolver(metrics=scan_metrics), matcher
        )
        incap_scanner.ingest([snapshot])
        incap_canonicals = list(incap_scanner.known_canonicals)
        incap_records = incap_scanner.scan()
        incap_retrieved = len(incap_records)
        incap_pipeline = FilterPipeline(
            world.provider("incapsula").prefixes,
            world.make_resolver(metrics=scan_metrics),
            verifier,
        )
        incap_hidden = incap_pipeline.run(
            incap_records, "incapsula", week=0
        ).hidden_count

    # The scan's recursive-resolution name set: harvested nameserver
    # hostnames plus collected canonicals — sibling-heavy, exactly where
    # the zone-cut memo pays off.  Both paths resolve the same names.
    comparison_pairs = [
        (hostname, RecordType.A) for hostname in harvest.hostnames
    ] + [(canonical, RecordType.A) for canonical in incap_canonicals]
    comparison = (
        compare_query_paths(world, comparison_pairs)
        if comparison_pairs
        else {}
    )

    e8 = {
        "harvested_nameservers": len(harvest),
        "cloudflare_retrieved": cf_retrieved,
        "cloudflare_hidden": cf_hidden,
        "incapsula_canonicals": len(incap_canonicals),
        "incapsula_retrieved": incap_retrieved,
        "incapsula_hidden": incap_hidden,
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
