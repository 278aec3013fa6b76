"""The day-step event engine.

Advances the simulated world one day at a time: every administrator
takes their daily actions, multi-CDN front-ends re-select member CDNs,
and providers purge stale records past their plan horizons.  All
ground-truth behaviour events are logged so measurements can be
validated against what actually happened.

The paper notes its real experiment intervals varied between 20 and 30
hours, which aggregated behaviours into visible spikes (§IV-B-3);
``interval_jitter_hours`` reproduces that artefact on demand.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..clock import SECONDS_PER_HOUR, SimulationClock
from ..rng import SeededRng
from .admin import AdminBehaviorModel, BehaviorEvent, BehaviorKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .internet import SimulatedInternet

__all__ = ["WorldEngine"]


class WorldEngine:
    """Drives the simulated world forward in daily steps."""

    def __init__(
        self,
        world: "SimulatedInternet",
        interval_jitter_hours: int = 0,
    ) -> None:
        self.world = world
        self.interval_jitter_hours = interval_jitter_hours
        self.events: List[BehaviorEvent] = []
        self._jitter_rng: SeededRng = world.rng.fork("interval-jitter")

    @property
    def clock(self) -> SimulationClock:
        """The world's clock."""
        return self.world.clock

    @property
    def admin(self) -> AdminBehaviorModel:
        """The world's administrator model."""
        return self.world.admin

    # ------------------------------------------------------------------

    def run_day(self) -> List[BehaviorEvent]:
        """Execute one observation interval; returns its events.

        With ``interval_jitter_hours`` set, intervals vary around 24 h
        (the paper's real intervals were 20-30 h, §IV-B-3) and behaviour
        rates scale with the elapsed time, aggregating events into the
        spikes visible in Fig. 3.
        """
        day = self.clock.day
        interval_hours = self._draw_interval_hours()
        rate_scale = interval_hours / 24.0
        todays: List[BehaviorEvent] = []
        for site in self.world.population:
            todays.extend(self.admin.step_site(site, day, rate_scale))
            site.rotate_public_address(day)
        self._flip_multicdn(day)
        # Attacks are part of the day's world dynamics: active floods
        # emit emergent JOIN/LEAVE/SWITCH waves (pure verdicts, never
        # the admin RNG stream) and surge the background-traffic load.
        # Every replica drives the identical sequence.
        attacks = self.world.fabric.attack_plane
        attack_surge = 1.0
        if attacks is not None:
            todays.extend(attacks.drive_day())
            attack_surge = attacks.traffic_surge
        self.events.extend(todays)
        # Background traffic is part of the day's world dynamics: every
        # replica of this world (shard workers, checkpoint replays)
        # drives the identical load sequence, so the plane's buckets,
        # breakers and load tier stay byte-identical everywhere.
        traffic = self.world.fabric.traffic_plane
        if traffic is not None:
            traffic.drive_day(attack_surge)
        self.clock.advance(interval_hours * SECONDS_PER_HOUR)
        # Stale-record purging is a start-of-day platform job: records
        # whose horizon elapses on day N are gone before day N's queries.
        for provider in self.world.providers.values():
            provider.purge_expired()
        return todays

    def run_days(self, days: int) -> List[BehaviorEvent]:
        """Execute several days; returns all events across them."""
        collected: List[BehaviorEvent] = []
        for _ in range(days):
            collected.extend(self.run_day())
        return collected

    # ------------------------------------------------------------------

    def _draw_interval_hours(self) -> int:
        if self.interval_jitter_hours <= 0:
            return 24
        jitter = self._jitter_rng.randint(
            -self.interval_jitter_hours, self.interval_jitter_hours
        )
        return max(1, 24 + jitter)

    def _flip_multicdn(self, day: int) -> None:
        service = self.world.multicdn
        if service is None:
            return
        for site in self.world.population:
            if not site.multicdn:
                continue
            member = service.provider_for(site.www, day)
            canonicals: Dict[str, object] = getattr(site, "multicdn_canonicals", {})
            canonical = canonicals.get(member)
            if canonical is not None:
                site.hosting.set_www_cname(site.apex, canonical)

    # ------------------------------------------------------------------
    # Ground-truth summaries (used to validate measurements)
    # ------------------------------------------------------------------

    def daily_counts(self) -> Dict[int, Dict[BehaviorKind, int]]:
        """Events per day per kind — the ground truth behind Fig. 3."""
        table: Dict[int, Dict[BehaviorKind, int]] = {}
        for event in self.events:
            table.setdefault(event.day, {kind: 0 for kind in BehaviorKind})
            table[event.day][event.kind] += 1
        return table
