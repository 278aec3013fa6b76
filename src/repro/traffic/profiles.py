"""Named traffic profiles for the background-load plane.

A :class:`TrafficProfile` is a reproducible recipe, the traffic-plane
analogue of :class:`repro.faults.profiles.FaultProfile`: given a built
world it constructs a :class:`~repro.traffic.plane.TrafficPlane` whose
randomness is forked from the world's root RNG, so installing a plane
never perturbs world dynamics.  ``build`` is called at install time —
after warm-up, right before measurement starts.

Calibration is by *target utilisation* rather than absolute nameserver
capacity: the plane derives each nameserver's daily capacity from the
profile's expected volume and target, so a profile keeps its intended
load tier no matter how many nameserver identities the provider catalog
deploys.

``steady`` is an *equivalence* profile: its utilisation stays strictly
below the adaptive limiter's high watermark and no breaker can trip, so
the measurement plane is never throttled and a study under it produces
artifacts byte-identical to a traffic-free run.  ``surge`` and ``flood``
deliberately push past the watermarks to exercise graceful degradation
(UNMEASURED observations, partial scans — never fabricated transitions).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigurationError
from ..net.geo import PAPER_VANTAGE_REGIONS
from ..obs.metrics import MetricsRegistry
from .plane import TrafficPlane

__all__ = [
    "TrafficProfile",
    "TRAFFIC_PROFILES",
    "traffic_profile",
]

_PAPER_REGIONS = tuple(PAPER_VANTAGE_REGIONS)


@dataclass(frozen=True)
class TrafficProfile:
    """A named, reproducible background-load recipe."""

    name: str
    description: str
    #: Whether a study under this profile must equal a traffic-free run.
    expect_equivalence: bool
    #: Mean background queries per region per simulated day.
    base_daily_queries: int
    #: Expected fleet utilisation on an average day; per-nameserver
    #: capacity is derived from this at build time.
    target_utilization: float
    regions: Tuple[str, ...] = _PAPER_REGIONS
    #: Modelled head clients per region (the Zipf head); the remaining
    #: volume is a long tail of small clients below every limit.
    clients_per_region: int = 48
    zipf_exponent: float = 1.1
    head_fraction: float = 0.6
    #: Per-head-client token-bucket allowance and burst cap.
    client_rate_per_day: int = 60_000
    client_burst_capacity: int = 90_000
    #: Periodic volume surges (post-attack query waves); 0 disables.
    surge_period_days: int = 0
    surge_multiplier: float = 1.0
    breaker_failure_threshold: int = 3
    breaker_base_backoff_days: int = 2
    breaker_jitter_fraction: float = 0.5
    breaker_max_backoff_days: int = 14
    high_watermark: float = 0.7
    critical_watermark: float = 0.9
    #: Retry-after charged to a throttled caller's retry budget.
    retry_after_ms: int = 250

    def surge_factor(self, day: int) -> float:
        """The volume multiplier for one simulated day."""
        if self.surge_period_days > 0 and day % self.surge_period_days == 0:
            return self.surge_multiplier
        return 1.0

    def build(
        self, world: object, metrics: Optional[MetricsRegistry] = None
    ) -> TrafficPlane:
        """Materialise the plane against a built world, at install time."""
        fleets = {}
        for provider_name in sorted(world.providers):
            provider = world.providers[provider_name]
            addresses = list(provider.infra_fleet.all_addresses())
            if provider.customer_fleet is not None:
                addresses.extend(provider.customer_fleet.all_addresses())
            fleets[provider_name] = addresses
        return TrafficPlane(
            profile=self,
            clock=world.clock,
            rng=world.rng.fork(f"traffic-plane-{self.name}"),
            fleets=fleets,
            metrics=metrics if metrics is not None else MetricsRegistry(),
        )


TRAFFIC_PROFILES: Dict[str, TrafficProfile] = {
    p.name: p
    for p in [
        TrafficProfile(
            "steady",
            "~3M queries/day of steady background load, utilisation well "
            "under the high watermark (equivalence guaranteed)",
            expect_equivalence=True,
            base_daily_queries=600_000,
            target_utilization=0.4,
        ),
        TrafficProfile(
            "surge",
            "weekly post-attack query surges push the fleet into the "
            "critical tier for a day at a time; breakers hold unless "
            "overload sustains",
            expect_equivalence=False,
            base_daily_queries=900_000,
            target_utilization=0.6,
            client_rate_per_day=90_000,
            client_burst_capacity=135_000,
            surge_period_days=7,
            surge_multiplier=3.0,
            breaker_failure_threshold=2,
        ),
        TrafficProfile(
            "flood",
            "sustained amplification-driven overload: critical tier, "
            "broad load shedding, breakers open for days",
            expect_equivalence=False,
            base_daily_queries=1_500_000,
            target_utilization=1.1,
            client_rate_per_day=150_000,
            client_burst_capacity=225_000,
        ),
    ]
}


def traffic_profile(name: str) -> TrafficProfile:
    """Look up a profile by name."""
    try:
        return TRAFFIC_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown traffic profile {name!r}; "
            f"known: {', '.join(sorted(TRAFFIC_PROFILES))} (or 'none')"
        ) from None
