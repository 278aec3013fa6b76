"""Named fault profiles for the chaos harness and the ``repro chaos`` CLI.

A :class:`FaultProfile` is a reproducible recipe: given a built world
and a metrics registry it constructs a :class:`~repro.faults.plan.FaultPlan`
whose randomness is forked from the world's root RNG (forks are
stateless with respect to the parent, so installing a plan never
perturbs world dynamics).  ``build`` is called at *install* time —
after warm-up, right before measurement starts — so day-windowed rules
are expressed relative to the clock's current day.

Profiles marked ``expect_equivalence`` keep every fault inside the
retry budget (``max_consecutive_failures`` strictly below
``RETRY_POLICY.max_attempts``, and only retryable fault kinds), so a study
run under them must produce byte-identical artifacts to a fault-free
run.  The rest deliberately exceed the budget to exercise graceful
degradation (UNMEASURED observations, quarantine, partial days).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from ..clock import DAYS_PER_WEEK
from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from .plan import FaultKind, FaultPlan, FaultRule
from .retry import RETRY_POLICY

__all__ = ["FaultProfile", "PROFILES", "profile"]

#: Consecutive-failure cap used by equivalence profiles.  One below
#: RETRY_POLICY.max_attempts: every query gets through on some attempt,
#: so artifacts match the fault-free run bit for bit.
_EQUIVALENCE_CAP = RETRY_POLICY.max_attempts - 1


@dataclass(frozen=True)
class FaultProfile:
    """A named, reproducible fault-plan recipe."""

    name: str
    description: str
    #: Whether a study under this profile must equal the fault-free run.
    expect_equivalence: bool
    _builder: Callable[[object, MetricsRegistry], List[FaultRule]]
    #: Plan-level consecutive-failure cap (None removes the guarantee).
    max_consecutive_failures: "int | None" = None

    def build(self, world: object, metrics: MetricsRegistry) -> FaultPlan:
        """Materialise the plan against a built world, at install time."""
        return FaultPlan(
            rng=world.rng.fork(f"fault-plan-{self.name}"),
            clock=world.clock,
            rules=self._builder(world, metrics),
            max_consecutive_failures=self.max_consecutive_failures,
            metrics=metrics,
            name=self.name,
        )


def _lossy_default(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    return [
        FaultRule(FaultKind.LATENCY, latency_ms=40, plane="both"),
        FaultRule(FaultKind.LOSS, probability=0.12, plane="dns"),
        FaultRule(FaultKind.LOSS, probability=0.10, plane="http"),
        FaultRule(FaultKind.SERVFAIL, probability=0.08, plane="dns"),
    ]


def _heavy_loss(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    return [
        FaultRule(FaultKind.LATENCY, latency_ms=120, plane="both"),
        FaultRule(FaultKind.LOSS, probability=0.55, plane="dns"),
        FaultRule(FaultKind.LOSS, probability=0.45, plane="http"),
        FaultRule(FaultKind.SERVFAIL, probability=0.30, plane="dns"),
    ]


def _ns_outage(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """Cloudflare's customer-facing nameservers go dark for one week."""
    fleet = frozenset(world.provider("cloudflare").customer_fleet.all_addresses())
    start = world.clock.day + 2 * DAYS_PER_WEEK
    return [
        FaultRule(
            FaultKind.OUTAGE,
            plane="dns",
            addresses=fleet,
            from_day=start,
            until_day=start + DAYS_PER_WEEK,
        ),
        FaultRule(FaultKind.LOSS, probability=0.05, plane="dns"),
    ]


def _rate_limited(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """Cloudflare's nameserver fleet throttles direct probing hard."""
    fleet = frozenset(world.provider("cloudflare").customer_fleet.all_addresses())
    return [
        FaultRule(
            FaultKind.RATE_LIMIT, plane="dns", addresses=fleet, max_per_day=8
        ),
    ]


def _attack_collateral(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """Ambient collateral damage while a DDoS campaign is in flight.

    Transit congestion in the three weeks after install — the window
    where the ``campaign`` attack profile lands its strikes — so
    ``repro chaos --profile attack-collateral --attacks campaign``
    stresses the degradation paths with floods and congested transit at
    once.  Loss rates sit above the retry budget on purpose, and the
    window opens on the install day itself so the chaos workloads
    (which measure immediately after install) sit inside it.
    """
    start = world.clock.day
    until = start + 3 * DAYS_PER_WEEK
    return [
        FaultRule(
            FaultKind.LATENCY,
            latency_ms=250,
            plane="both",
            from_day=start,
            until_day=until,
        ),
        FaultRule(
            FaultKind.LOSS,
            probability=0.45,
            plane="dns",
            from_day=start,
            until_day=until,
        ),
        FaultRule(
            FaultKind.LOSS,
            probability=0.35,
            plane="http",
            from_day=start,
            until_day=until,
        ),
    ]


def _regional_blackout(world: object, metrics: MetricsRegistry) -> List[FaultRule]:
    """The Sydney vantage loses connectivity for two weeks mid-study."""
    start = world.clock.day + DAYS_PER_WEEK
    return [
        FaultRule(
            FaultKind.OUTAGE,
            plane="both",
            region="sydney",
            from_day=start,
            until_day=start + 2 * DAYS_PER_WEEK,
        ),
    ]


PROFILES: Dict[str, FaultProfile] = {
    p.name: p
    for p in [
        FaultProfile(
            "lossy-default",
            "moderate loss + transient SERVFAIL + latency, all inside "
            "the retry budget (equivalence guaranteed)",
            expect_equivalence=True,
            _builder=_lossy_default,
            max_consecutive_failures=_EQUIVALENCE_CAP,
        ),
        FaultProfile(
            "heavy-loss",
            "loss and SERVFAIL rates far above the retry budget; the "
            "study must degrade, not crash",
            expect_equivalence=False,
            _builder=_heavy_loss,
        ),
        FaultProfile(
            "ns-outage",
            "Cloudflare's customer nameserver fleet dark for week 2 of "
            "the study window",
            expect_equivalence=False,
            _builder=_ns_outage,
        ),
        FaultProfile(
            "rate-limited",
            "per-nameserver daily query caps on the Cloudflare fleet",
            expect_equivalence=False,
            _builder=_rate_limited,
        ),
        FaultProfile(
            "attack-collateral",
            "three weeks of congested transit (latency + heavy loss) in "
            "the window where the 'campaign' attack profile strikes; the "
            "study must degrade, not crash",
            expect_equivalence=False,
            _builder=_attack_collateral,
        ),
        FaultProfile(
            "regional-blackout",
            "two-week total outage for clients in the Sydney region",
            expect_equivalence=False,
            _builder=_regional_blackout,
        ),
    ]
}


def profile(name: str) -> FaultProfile:
    """Look up a profile by name."""
    try:
        return PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault profile {name!r}; "
            f"known: {', '.join(sorted(PROFILES))}"
        ) from None
