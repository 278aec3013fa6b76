"""Named attack profiles: reproducible DDoS campaign recipes.

An :class:`AttackProfile` is the attack-plane analogue of
:class:`repro.traffic.profiles.TrafficProfile`: given a built world it
constructs an :class:`~repro.attacks.plane.AttackPlane` whose schedule
is generated from an RNG forked off the world's root stream — the fork
label is position-independent, so a resumed or sharded process rebuilds
the byte-identical schedule without serialising it.  ``build`` is
called at install time, after warm-up, so event start days are offsets
from the install day and a checkpointed study replays them identically.

Wave-rate calibration (see docs/ROBUSTNESS.md for the table):

* ``emergency_join_rate`` / ``splash_join_rate`` — an attacked
  unprotected site races to a DPS; co-located /24 neighbours follow at
  a lower rate ("The Web is Still Small": one flood splashes many
  origins).
* ``leave_rate`` / ``switch_rate`` — per customer per attack-day at an
  *overwhelmed* provider, an order of magnitude over the baseline
  daily churn, following the post-attack behaviour spikes measured in
  "No Time for Downtime" (PAPERS.md).

``quiet`` is the *equivalence* profile: an installed plane with an
empty schedule must leave every study artifact byte-identical to an
attack-free run — the chaos harness proves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigurationError
from ..obs.metrics import MetricsRegistry
from .events import AttackEvent, AttackKind, TargetKind, block_of
from .plane import AttackPlane

__all__ = [
    "AttackProfile",
    "ATTACK_PROFILES",
    "attack_profile",
]


@dataclass(frozen=True)
class AttackProfile:
    """A named, reproducible DDoS campaign recipe."""

    name: str
    description: str
    #: Whether a study under this profile must equal an attack-free run.
    expect_equivalence: bool
    #: Strike counts per target kind across the campaign.
    site_strikes: int = 0
    block_strikes: int = 0
    provider_strikes: int = 0
    #: Provider strikes sized past the victim's scrubbing capacity —
    #: the ones that trigger the LEAVE/SWITCH churn wave.
    overwhelming_strikes: int = 0
    #: Schedule shape: first strike lands this many days after install,
    #: subsequent strikes follow every ``strike_spacing_days`` (plus a
    #: seeded jitter draw) and run for a drawn duration.
    first_strike_offset: int = 1
    strike_spacing_days: int = 5
    spacing_jitter_days: int = 2
    duration_days: Tuple[int, int] = (2, 3)
    #: Flood magnitudes; provider strikes are sized relative to the
    #: victim's aggregate scrubbing capacity at build time.
    site_magnitude_gbps: float = 40.0
    block_magnitude_gbps: float = 120.0
    provider_capacity_fraction: float = 0.35
    overwhelming_capacity_fraction: float = 1.6
    #: Wave calibration (per subject per attack-day; see module doc).
    emergency_join_rate: float = 0.45
    splash_join_rate: float = 0.12
    leave_rate: float = 0.04
    switch_rate: float = 0.08
    #: Transient fault window on attacked infrastructure.
    ns_outage_probability: float = 0.65
    origin_outage_probability: float = 0.80
    attack_latency_ms: int = 400
    #: Query-surge coupling into the traffic plane.
    surge_per_gbps: float = 0.0008
    max_surge: float = 4.0

    def build(
        self, world: object, metrics: Optional[MetricsRegistry] = None
    ) -> AttackPlane:
        """Materialise the plane against a built world, at install time.

        Schedule draws come from a label-forked stream in a fixed
        order, so every replica that installs this profile at the same
        world day regenerates the identical schedule.
        """
        rng = world.rng.fork(f"attack-plane-{self.name}")
        install_day = world.clock.day
        unprotected = [
            site
            for site in world.population
            if site.alive and site.provider is None and not site.multicdn
        ]
        alive = [site for site in world.population if site.alive]
        shares = {spec.name: spec.market_share for spec in world.specs}
        share_names = sorted(shares)
        share_weights = [shares[name] for name in share_names]
        kinds = (
            ["site"] * self.site_strikes
            + ["block"] * self.block_strikes
            + ["provider"] * self.provider_strikes
            + ["overwhelming"] * self.overwhelming_strikes
        )
        events: List[AttackEvent] = []
        day = install_day + self.first_strike_offset
        low, high = self.duration_days
        for event_id, strike in enumerate(kinds):
            duration = rng.randint(low, high)
            if strike == "site":
                if not unprotected:
                    continue
                victim = unprotected[rng.randint(0, len(unprotected) - 1)]
                events.append(
                    AttackEvent(
                        event_id,
                        AttackKind.VOLUMETRIC,
                        TargetKind.SITE_ORIGIN,
                        str(victim.www),
                        day,
                        duration,
                        self.site_magnitude_gbps,
                    )
                )
            elif strike == "block":
                if not alive:
                    continue
                anchor = alive[rng.randint(0, len(alive) - 1)]
                events.append(
                    AttackEvent(
                        event_id,
                        AttackKind.AMPLIFICATION,
                        TargetKind.HOSTING_BLOCK,
                        block_of(anchor.origin.ip),
                        day,
                        duration,
                        self.block_magnitude_gbps,
                    )
                )
            else:
                name = rng.weighted_choice(share_names, share_weights)
                provider = world.providers[name]
                capacity = provider.build.scrub_capacity_per_pop_gbps * len(
                    provider.pops
                )
                fraction = (
                    self.overwhelming_capacity_fraction
                    if strike == "overwhelming"
                    else self.provider_capacity_fraction
                )
                magnitude = round(capacity * fraction, 3)
                events.append(
                    AttackEvent(
                        event_id,
                        AttackKind.AMPLIFICATION,
                        TargetKind.PROVIDER_FLEET,
                        name,
                        day,
                        duration,
                        magnitude,
                        overwhelms=magnitude > capacity,
                    )
                )
            day += self.strike_spacing_days + (
                rng.randint(0, self.spacing_jitter_days)
                if self.spacing_jitter_days > 0
                else 0
            )
        return AttackPlane(
            profile=self,
            world=world,
            events=events,
            metrics=metrics if metrics is not None else MetricsRegistry(),
        )


ATTACK_PROFILES: Dict[str, AttackProfile] = {
    p.name: p
    for p in [
        AttackProfile(
            "quiet",
            "an installed plane with an empty schedule: no events, no "
            "waves, no surges (equivalence guaranteed)",
            expect_equivalence=True,
        ),
        AttackProfile(
            "skirmish",
            "two short volumetric floods on unprotected origins and one "
            "absorbed provider flood: JOIN waves only, defenses hold",
            expect_equivalence=False,
            site_strikes=2,
            provider_strikes=1,
            strike_spacing_days=4,
            duration_days=(1, 2),
        ),
        AttackProfile(
            "campaign",
            "a six-week campaign: origin floods with co-location "
            "splash, a hosting-block amplification, an absorbed and an "
            "overwhelming provider attack driving post-attack churn",
            expect_equivalence=False,
            site_strikes=3,
            block_strikes=1,
            provider_strikes=1,
            overwhelming_strikes=1,
            first_strike_offset=1,
            strike_spacing_days=5,
        ),
        AttackProfile(
            "blitz",
            "sustained heavy bombardment: repeated overwhelming "
            "provider attacks and block floods, churn waves every week",
            expect_equivalence=False,
            site_strikes=4,
            block_strikes=2,
            provider_strikes=2,
            overwhelming_strikes=2,
            first_strike_offset=1,
            strike_spacing_days=2,
            spacing_jitter_days=1,
            duration_days=(2, 4),
            leave_rate=0.06,
            switch_rate=0.10,
        ),
    ]
}


def attack_profile(name: str) -> AttackProfile:
    """Look up a profile by name."""
    try:
        return ATTACK_PROFILES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown attack profile {name!r}; "
            f"known: {', '.join(sorted(ATTACK_PROFILES))} (or 'none')"
        ) from None
