"""The ``repro chaos`` harness: same seed, one faulty run, diff the rest.

Builds two identical worlds from one seed, runs the E1 (daily
collection) and E8 (residual scan + filter pipeline) workloads on both
— one fault-free, one under a named fault profile installed after
warm-up — and diffs the measured artifacts field by field.

For profiles that stay inside the retry budget
(``expect_equivalence``), any divergence is a correctness bug in the
retry/fault machinery and the run fails.  For budget-exceeding
profiles the run fails only if the harness *didn't* degrade gracefully:
an exception escaped, or nothing was marked unmeasured even though
faults clearly bit.

The payload is what ``repro chaos`` serialises to
``CHAOS_<profile>.json``.  Everything here is deterministic — no wall
clock, no ambient randomness — so a chaos report is reproducible
byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..core.collector import DnsRecordCollector
from ..core.htmlverify import HtmlVerifier
from ..core.matching import ProviderMatcher
from ..core.pipeline import FilterPipeline
from ..core.residual_scan import CloudflareScanner, IncapsulaScanner, NameserverHarvest
from ..net.geo import PAPER_VANTAGE_REGIONS
from ..obs.metrics import MetricsRegistry
from ..scenario import Scenario
from ..world import SimulatedInternet, WorldConfig
from .profiles import FaultProfile, profile as lookup_profile

__all__ = ["run_chaos", "diff_artifacts"]

#: Divergences listed in the payload before truncation.
_MAX_DIVERGENCES = 25

#: Extra engine days driven after the planes install when an attack
#: campaign rides along, so the first strikes land (and their emergency
#: waves fire) before the workloads measure — mid-campaign, never
#: pre-campaign.  Both worlds drive the identical extra days.
_ATTACK_SOAK_DAYS = 9


def diff_artifacts(
    baseline: Dict[str, object], chaotic: Dict[str, object]
) -> List[str]:
    """Dotted paths where two artifact trees differ (sorted, truncated)."""
    paths: List[str] = []
    _diff_into(baseline, chaotic, "", paths)
    paths.sort()
    if len(paths) > _MAX_DIVERGENCES:
        extra = len(paths) - _MAX_DIVERGENCES
        paths = paths[:_MAX_DIVERGENCES] + [f"... and {extra} more"]
    return paths


def _diff_into(a: object, b: object, prefix: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path} (only in faulty run)")
            elif key not in b:
                out.append(f"{path} (only in baseline)")
            else:
                _diff_into(a[key], b[key], path, out)
        return
    if a != b:
        out.append(f"{prefix}: {a!r} != {b!r}")


def _collection_artifact(snapshot) -> Dict[str, object]:
    return {
        str(domain.www): {
            "a": sorted(str(ip) for ip in domain.a_records),
            "cnames": [str(c) for c in domain.cnames],
            "ns": sorted(str(t) for t in domain.ns_targets),
            "rcode": str(domain.rcode),
            "measured": domain.measured,
        }
        for domain in snapshot
    }


def _pipeline_artifact(report) -> Dict[str, object]:
    return {
        "retrieved": report.retrieved,
        "dropped_ip_filter": report.dropped_ip_filter,
        "dropped_a_filter": report.dropped_a_filter,
        "hidden": sorted(
            (record.www, str(record.address)) for record in report.hidden
        ),
        "verified": sorted(report.verified_websites()),
    }


def _run_workloads(
    population: int,
    seed: int,
    warmup_days: int,
    fault_profile: Optional[FaultProfile],
    traffic: Optional[str] = None,
    attacks: Optional[str] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One world, E1 + E8, returning (artifacts, observability).

    ``traffic`` and ``attacks`` install on *both* the baseline and the
    faulty world (the caller passes the same values twice), so the diff
    keeps isolating the fault profile's effect: under load and under
    attack, an equivalence profile must still produce byte-identical
    artifacts.  With an attack campaign the world soaks a few extra
    days after install so the workloads measure mid-campaign.
    """
    world = SimulatedInternet(
        WorldConfig(population_size=population, seed=seed)
    )
    world.engine.run_days(warmup_days)
    metrics = MetricsRegistry()
    Scenario(traffic=traffic, attacks=attacks).install(world)
    if attacks is not None:
        world.engine.run_days(_ATTACK_SOAK_DAYS)
    if fault_profile is not None:
        world.install_faults(fault_profile, metrics)
    hostnames = [str(site.www) for site in world.population]

    # E1: one cache-purged daily collection pass.
    resolver = world.make_resolver(metrics=metrics)
    collector = DnsRecordCollector(resolver)
    snapshot = collector.collect(hostnames, day=world.clock.day)
    artifacts: Dict[str, object] = {"e1": _collection_artifact(snapshot)}

    # E8: harvest, Cloudflare sweep, Incapsula tracker, filter pipeline.
    matcher = ProviderMatcher(world.specs, world.routeviews)
    verifier = HtmlVerifier(
        world.http_client(PAPER_VANTAGE_REGIONS[0], metrics=metrics)
    )
    harvest = NameserverHarvest()
    harvest.ingest([snapshot])
    ns_ips = harvest.resolve_addresses(world.make_resolver(metrics=metrics))

    e8: Dict[str, object] = {
        "harvested_nameservers": sorted(str(n) for n in harvest.hostnames),
        "nameserver_addresses": sorted(str(ip) for ip in ns_ips),
    }
    if ns_ips and "cloudflare" in world.providers:
        scanner = CloudflareScanner(
            ns_ips,
            [world.dns_client(region, metrics=metrics)
             for region in PAPER_VANTAGE_REGIONS],
            rng=world.rng.fork("chaos-e8-scan"),
            metrics=metrics,
        )
        retrieved = scanner.scan(hostnames)
        e8["cloudflare_retrieved"] = sorted(
            (record.www, sorted(str(ip) for ip in record.addresses))
            for record in retrieved
        )
        pipeline = FilterPipeline(
            world.provider("cloudflare").prefixes,
            world.make_resolver(metrics=metrics),
            verifier,
        )
        e8["cloudflare"] = _pipeline_artifact(
            pipeline.run(retrieved, "cloudflare", week=0)
        )
    if "incapsula" in world.providers:
        incap = IncapsulaScanner(world.make_resolver(metrics=metrics), matcher)
        incap.ingest([snapshot])
        incap_records = incap.scan()
        incap_pipeline = FilterPipeline(
            world.provider("incapsula").prefixes,
            world.make_resolver(metrics=metrics),
            verifier,
        )
        e8["incapsula"] = _pipeline_artifact(
            incap_pipeline.run(incap_records, "incapsula", week=0)
        )
    artifacts["e8"] = e8

    unmeasured = snapshot.unmeasured_count
    observability = {
        "counters": metrics.snapshot(),
        "unmeasured_sites": unmeasured,
        "quarantined_nameservers": [
            address for address, _, _ in resolver.quarantine.snapshot()
        ],
    }
    return artifacts, observability


def run_chaos(
    profile_name: str,
    population: int = 400,
    seed: int = 2018,
    warmup_days: int = 21,
    traffic: Optional[str] = None,
    attacks: Optional[str] = None,
) -> Dict[str, object]:
    """Run the chaos comparison and return the report payload.

    ``passed`` is False when an equivalence profile diverged, or when a
    budget-exceeding profile failed to degrade explicitly (faults were
    injected, results diverged, yet nothing was marked unmeasured or
    quarantined and no query was given up on).  ``traffic`` / ``attacks``
    put *both* worlds under the same background load and attack
    campaign, proving the fault check composes with the other planes.
    """
    fault_profile = lookup_profile(profile_name)
    baseline_artifacts, _ = _run_workloads(
        population, seed, warmup_days, None, traffic=traffic, attacks=attacks
    )
    chaotic_artifacts, observability = _run_workloads(
        population, seed, warmup_days, fault_profile,
        traffic=traffic, attacks=attacks,
    )
    divergences = diff_artifacts(baseline_artifacts, chaotic_artifacts)
    identical = not divergences

    counters = observability["counters"]
    faults_injected = sum(
        count
        for name, count in counters.items()
        if name.startswith("faults.")
        and not name.endswith(("latency_ms", "latency_injections", "suppressed"))
    )
    degraded_explicitly = (
        observability["unmeasured_sites"] > 0
        or bool(observability["quarantined_nameservers"])
        or counters.get("resolver.gave_up", 0) > 0
        or counters.get("http.unanswered", 0) > 0
        or counters.get("client.unanswered", 0) > 0
    )
    if fault_profile.expect_equivalence:
        passed = identical
    else:
        passed = identical or degraded_explicitly or faults_injected == 0

    return {
        "profile": fault_profile.name,
        "description": fault_profile.description,
        "expect_equivalence": fault_profile.expect_equivalence,
        "population": population,
        "seed": seed,
        "warmup_days": warmup_days,
        "traffic": traffic,
        "attacks": attacks,
        "identical": identical,
        "divergences": divergences,
        "faults_injected": faults_injected,
        "retries": {
            "resolver": counters.get("resolver.retries", 0),
            "client": counters.get("client.retries", 0),
            "http": counters.get("http.retries", 0),
        },
        "unmeasured_sites": observability["unmeasured_sites"],
        "quarantined_nameservers": observability["quarantined_nameservers"],
        "counters": counters,
        "passed": passed,
    }
