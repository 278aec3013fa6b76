"""The ``repro chaos`` harness: same seed, one faulty run, diff the rest.

Builds two identical worlds from one seed and runs one study day on
both — :meth:`~repro.core.study.SixWeekStudy.collect_day` (E1, the daily
collection) and :meth:`~repro.core.study.SixWeekStudy.scan_day` (E8, the
residual scan and filter pipeline), then ``finalise`` — one fault-free,
one under a named fault profile installed after warm-up.  The two
worlds' :func:`~repro.core.export.study_artifact` trees are diffed
field by field.

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

from typing import Dict, Optional, Tuple

from ..core.export import diff_artifacts, study_artifact
from ..core.study import SixWeekStudy, StudyConfig
from ..obs.metrics import MetricsRegistry
from ..scenario import Scenario
from ..world import SimulatedInternet, WorldConfig
from .profiles import FaultProfile, profile as lookup_profile

__all__ = ["run_chaos"]

#: Extra engine days driven after the planes install when an attack
#: campaign rides along, so the first strikes land (and their emergency
#: waves fire) before the day is measured — mid-campaign, never
#: pre-campaign.  Both worlds drive the identical extra days.
_ATTACK_SOAK_DAYS = 9


def _run_workloads(
    population: int,
    seed: int,
    warmup_days: int,
    fault_profile: Optional[FaultProfile],
    traffic: Optional[str] = None,
    attacks: Optional[str] = None,
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """One world, one measured study day: (artifacts, observability).

    ``traffic`` and ``attacks`` install on *both* the baseline and the
    faulty world (the caller passes the same values twice), so the diff
    keeps isolating the fault profile's effect: under load and under
    attack, an equivalence profile must still produce byte-identical
    artifacts.  With an attack campaign the world soaks a few extra
    days after install so the day is measured mid-campaign.
    """
    world = SimulatedInternet(
        WorldConfig(population_size=population, seed=seed)
    )
    study = SixWeekStudy(
        world, StudyConfig(warmup_days=warmup_days, study_days=1)
    )
    runtime = study.begin()
    Scenario(traffic=traffic, attacks=attacks).install(world)
    if attacks is not None:
        world.engine.run_days(_ATTACK_SOAK_DAYS)
    metrics = MetricsRegistry()
    if fault_profile is not None:
        world.install_faults(fault_profile, metrics)
    study.collect_day(runtime)
    study.scan_day(runtime)
    report = study.finalise(runtime)

    metrics.merge(runtime.collection_resolver.metrics)
    for client in runtime.vantage_clients:
        metrics.merge(client.metrics)
    observability = {
        "counters": metrics.snapshot(),
        "unmeasured_sites": report.total_unmeasured,
        "quarantined_nameservers": report.quarantined_nameservers,
    }
    return study_artifact(report), observability


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
        },
        "unmeasured_sites": observability["unmeasured_sites"],
        "quarantined_nameservers": observability["quarantined_nameservers"],
        "counters": counters,
        "passed": passed,
    }
