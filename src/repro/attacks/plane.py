"""The attack plane: scheduled DDoS events driving world dynamics.

Like the traffic plane, the attack plane straddles the shard boundary
and is split along the same two consistency rules:

* **World side** (``drive_day``): the active-event scan, the emergent
  behaviour waves (emergency JOINs, post-attack LEAVE/SWITCH churn),
  the attacked-address sets and the traffic surge factor.  Driven from
  the world engine's day step, which every replica — shard workers,
  checkpoint replays, the coordinator's merge replay — executes
  identically, so this state is *replicated* and shard merging checks
  it for byte agreement (never summed).
* **Measurement side** (``admit_dns`` / ``admit_http``): the transient
  fault window an active flood opens on the victim's infrastructure.
  Verdicts are pure hashes with no mutable state on the admission
  path: DNS fates are drawn per (day, event, region) — a flood either
  exceeds the fleet's absorption capacity that day or it doesn't, so
  the whole fleet shares one fate and the verdict cannot depend on
  *which* fleet addresses a resolver's warm-or-cold cache leads it to
  try — and HTTP fates per (day, address, region), giving /24 splash
  its per-origin texture.  Both are order-free across shard workers.  A dropped
  delivery surfaces as ``attack-outage``: a deterministic timeout the
  resolver fails over from — like a throttle, and like a throttle it
  never quarantines the flooded (but healthy) server — ultimately
  degrading to UNMEASURED, never a fabricated transition.

Wave decisions never touch the admin RNG stream: they are the pure
verdict functions of :mod:`repro.attacks.events`, so installing the
plane perturbs no baseline world dynamics and the same (seed, day,
event) always produces the same wave at any shard count.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, TYPE_CHECKING

from ..dps.catalog import normalised_market_shares
from ..errors import CheckpointCorruptError
from ..markers import pure_function
from ..net.geo import Region
from ..net.ipaddr import IPv4Address
from ..obs.metrics import MetricsRegistry
from ..world.admin import BehaviorEvent, BehaviorKind
from ..world.website import Website
from .events import (
    AttackEvent,
    TargetKind,
    block_of,
    choose_wave_enrollment,
    hash_fraction,
    wave_triggered,
    weighted_pick,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from ..world.internet import SimulatedInternet
    from .profiles import AttackProfile

__all__ = ["AttackVerdict", "AttackPlane"]


class AttackVerdict(NamedTuple):
    """What an active flood decided for one measurement delivery.

    ``attack-outage`` means the packet drowned in the flood: the client
    sees a timeout and ``latency_ms`` is charged to its retry budget.
    """

    outcome: str
    response: Optional[object] = None
    latency_ms: int = 0


class AttackPlane:
    """A frozen attack schedule plus its per-day world effects."""

    def __init__(
        self,
        profile: "AttackProfile",
        world: "SimulatedInternet",
        events: List[AttackEvent],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.profile = profile
        self.name = profile.name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._world = world
        self._clock = world.clock
        self._seed = world.config.seed
        #: The immutable schedule, generated once at install time.
        self.events: List[AttackEvent] = list(events)
        self._by_www: Dict[str, Website] = {
            str(site.www): site for site in world.population
        }
        shares = normalised_market_shares(world.specs)
        self._share_names = sorted(shares)
        self._share_weights = [shares[name] for name in self._share_names]
        self._specs = {spec.name: spec for spec in world.specs}
        #: World-side integer tallies (event-days, waves, splash counts).
        self.tallies: Dict[str, int] = {}
        #: Today's attacked infrastructure, recomputed each drive step:
        #: nameserver addresses under flood (DNS outage window) and
        #: origin addresses under flood (HTTP outage window).
        self._attacked_dns: Dict[str, int] = {}
        self._attacked_http: Dict[str, int] = {}
        self._surge = 1.0

    # -- world side: the daily attack step ------------------------------

    @property
    def traffic_surge(self) -> float:
        """Today's query-surge multiplier for the traffic plane."""
        return self._surge

    def active_events(self, day: int) -> List[AttackEvent]:
        """The floods running on the given day, in schedule order."""
        return [event for event in self.events if event.active_on(day)]

    def drive_day(self) -> List[BehaviorEvent]:
        """Play out one simulated day of attacks; returns wave events.

        Called from the world engine's day step, so every replica
        drives the identical sequence.  All per-site decisions go
        through the pure verdict functions — the shared admin RNG
        stream is never touched.
        """
        day = self._clock.day
        self._bump("days")
        self._attacked_dns = {}
        self._attacked_http = {}
        surge = 1.0
        emitted: List[BehaviorEvent] = []
        for event in self.active_events(day):
            self._bump(f"event_days.{event.event_id}")
            self._bump(f"kind_days.{event.kind.value}")
            surge += self.profile.surge_per_gbps * event.magnitude_gbps
            if event.target_kind is TargetKind.PROVIDER_FLEET:
                emitted.extend(self._drive_provider_attack(event, day))
            elif event.target_kind is TargetKind.SITE_ORIGIN:
                emitted.extend(self._drive_origin_attack(event, day))
            else:
                emitted.extend(self._drive_block_attack(event, day))
        self._surge = min(surge, self.profile.max_surge)
        if surge > 1.0:
            self._bump("surge_days")
        return emitted

    def _drive_provider_attack(
        self, event: AttackEvent, day: int
    ) -> List[BehaviorEvent]:
        """A flood on a provider fleet: DNS outage plus churn wave."""
        provider = self._world.providers.get(event.target)
        if provider is None:
            return []
        for address in provider.infra_fleet.all_addresses():
            self._attacked_dns[str(address)] = event.event_id
        if provider.customer_fleet is not None:
            for address in provider.customer_fleet.all_addresses():
                self._attacked_dns[str(address)] = event.event_id
        if not event.overwhelms:
            return []
        return self._churn_wave(event, day, provider.name)

    def _drive_origin_attack(
        self, event: AttackEvent, day: int
    ) -> List[BehaviorEvent]:
        """A flood on one site's origin: HTTP outage plus a JOIN wave
        on the victim and its co-located /24 neighbours."""
        victim = self._site_by_www(event.target)
        if victim is None or not victim.alive:
            return []
        for address in victim.origin_pool:
            self._attacked_http[str(address)] = event.event_id
        return self._join_wave(
            event, day, block=block_of(victim.origin.ip), victim=event.target
        )

    def _drive_block_attack(
        self, event: AttackEvent, day: int
    ) -> List[BehaviorEvent]:
        """A flood on a co-located hosting /24: every origin in the
        block is splashed ("The Web is Still Small")."""
        for site in self._world.population:
            if not site.alive:
                continue
            if block_of(site.origin.ip) == event.target:
                for address in site.origin_pool:
                    self._attacked_http[str(address)] = event.event_id
        return self._join_wave(event, day, block=event.target, victim=None)

    def _join_wave(
        self,
        event: AttackEvent,
        day: int,
        block: str,
        victim: Optional[str],
    ) -> List[BehaviorEvent]:
        """Emergency JOINs: the victim at the panic rate, co-located
        neighbours at the splash rate."""
        emitted: List[BehaviorEvent] = []
        for site in self._world.population:
            if not site.alive or site.multicdn or site.provider is not None:
                continue
            www = str(site.www)
            if www == victim:
                rate = self.profile.emergency_join_rate
                wave = "victim"
            elif block_of(site.origin.ip) == block:
                rate = self.profile.splash_join_rate
                wave = "splash"
            else:
                continue
            if not wave_triggered(
                "attack-join", self._seed, event.event_id, day, www, rate
            ):
                continue
            spec_name = weighted_pick(
                "attack-join-provider",
                self._seed,
                event.event_id,
                day,
                www,
                self._share_names,
                self._share_weights,
            )
            spec = self._specs[spec_name]
            rerouting, plan = choose_wave_enrollment(
                spec, self._seed, event.event_id, day, www
            )
            rotate = hash_fraction(
                "attack-join-rotate", self._seed, event.event_id, day, www
            ) < (1.0 - spec.ip_unchanged_rate)
            site.join(
                self._world.providers[spec_name],
                rerouting,
                plan,
                rotate_origin_ip=rotate,
            )
            self._bump(f"waves.join.{wave}")
            self._bump(f"event_waves.{event.event_id}.join")
            emitted.append(
                BehaviorEvent(day, www, BehaviorKind.JOIN, to_provider=spec_name)
            )
        return emitted

    def _churn_wave(
        self, event: AttackEvent, day: int, provider_name: str
    ) -> List[BehaviorEvent]:
        """Post-attack churn at an overwhelmed provider, calibrated to
        the LEAVE/SWITCH rates of "No Time for Downtime"."""
        emitted: List[BehaviorEvent] = []
        leave_rate = self.profile.leave_rate
        switch_rate = self.profile.switch_rate
        departure = self._world.config.departure_profile(provider_name)
        for site in self._world.population:
            if not site.alive or site.multicdn:
                continue
            if site.provider is None or site.provider.name != provider_name:
                continue
            www = str(site.www)
            draw = hash_fraction(
                "attack-churn", self._seed, event.event_id, day, www
            )
            informed = (
                hash_fraction(
                    "attack-informed", self._seed, event.event_id, day, www
                )
                < departure.informed
            )
            if draw < leave_rate:
                rehost = (
                    hash_fraction(
                        "attack-rehost", self._seed, event.event_id, day, www
                    )
                    < departure.rehost_after_leave
                )
                die = (not rehost) and (
                    hash_fraction(
                        "attack-die", self._seed, event.event_id, day, www
                    )
                    < departure.die_after_leave
                )
                site.leave(informed=informed, rehost=rehost, die=die)
                self._bump("waves.leave")
                self._bump(f"event_waves.{event.event_id}.leave")
                emitted.append(
                    BehaviorEvent(
                        day, www, BehaviorKind.LEAVE, from_provider=provider_name
                    )
                )
            elif draw < leave_rate + switch_rate:
                names = [n for n in self._share_names if n != provider_name]
                weights = [
                    w
                    for n, w in zip(self._share_names, self._share_weights)
                    if n != provider_name
                ]
                spec_name = weighted_pick(
                    "attack-switch-provider",
                    self._seed,
                    event.event_id,
                    day,
                    www,
                    names,
                    weights,
                )
                spec = self._specs[spec_name]
                rerouting, plan = choose_wave_enrollment(
                    spec, self._seed, event.event_id, day, www
                )
                rotate = (
                    hash_fraction(
                        "attack-switch-rotate", self._seed, event.event_id, day, www
                    )
                    < departure.rotate_on_switch
                )
                site.switch(
                    self._world.providers[spec_name],
                    rerouting,
                    plan,
                    informed=informed,
                    rotate_origin_ip=rotate,
                )
                self._bump("waves.switch")
                self._bump(f"event_waves.{event.event_id}.switch")
                emitted.append(
                    BehaviorEvent(
                        day,
                        www,
                        BehaviorKind.SWITCH,
                        from_provider=provider_name,
                        to_provider=spec_name,
                    )
                )
        return emitted

    def _site_by_www(self, www: str) -> Optional[Website]:
        return self._by_www.get(www)

    def _bump(self, key: str, amount: int = 1) -> None:
        if amount:
            self.tallies[key] = self.tallies.get(key, 0) + amount

    # -- measurement side: fabric admission -----------------------------

    @pure_function
    def admit_dns(
        self,
        address: IPv4Address,
        query: object,
        region: Optional[Region],
    ) -> Optional[AttackVerdict]:
        """Outage verdict for a DNS delivery into a flooded fleet.

        Pure hash of (day, event, region) against the outage
        probability: on any given day the flood either exceeds the
        fleet's absorption capacity or it does not, so every address of
        the attacked fleet shares one fate — there is no per-address or
        per-qname luck.  That event-day granularity is also what keeps
        the verdict cache-warmth-independent: *which* fleet addresses a
        site tries depends on glueless NS discovery and the zone-cut
        memo warmed earlier in the collection pass (the monolithic pass
        is warmed by every slice, a shard's only by its own), and any
        finer-grained draw would hand warm and cold passes different
        fates for the same site.  Only provider-fleet events open DNS
        windows, and a delegation's NS set never mixes fleets, so a
        candidate list under attack is uniformly one event.
        """
        event_id = self._attacked_dns.get(str(address))
        if event_id is None:
            return None
        day = self._clock.day
        region_name = region.name if region is not None else ""
        draw = hash_fraction("attack-dns", day, event_id, region_name)
        if draw < self.profile.ns_outage_probability:
            self.metrics.incr("attacks.dns.outage")
            self.metrics.incr(f"attacks.event.{event_id}.dns_outage")
            return AttackVerdict(
                "attack-outage", None, self.profile.attack_latency_ms
            )
        return None

    @pure_function
    def admit_http(
        self,
        address: IPv4Address,
        host: Optional[object],
        region: Optional[Region],
    ) -> Optional[AttackVerdict]:
        """Outage verdict for an HTTP request into a flooded origin.

        Stresses HTML verification's origin matching: a flooded origin
        times out instead of answering, degrading verification to the
        carry-forward path rather than fabricating a transition.  Drawn
        per (day, address, region): the verifier's targets come from
        the day's snapshot, not from cache-dependent discovery, so
        per-origin texture here is shard-safe (unlike DNS fates, which
        must be uniform per event-day).
        """
        event_id = self._attacked_http.get(str(address))
        if event_id is None:
            return None
        day = self._clock.day
        region_name = region.name if region is not None else ""
        draw = hash_fraction("attack-http", day, str(address), region_name)
        if draw < self.profile.origin_outage_probability:
            self.metrics.incr("attacks.http.outage")
            self.metrics.incr(f"attacks.event.{event_id}.http_outage")
            return AttackVerdict(
                "attack-outage", None, self.profile.attack_latency_ms
            )
        return None

    # -- checkpoint / shard support ------------------------------------

    def drive_state(self) -> Dict[str, object]:
        """The world-side state every shard replica must agree on.

        This is the shard payload's ``attacks`` entry: merged by byte
        agreement, never summed (the schedule and its effects are
        replicated per worker, not partitioned).
        """
        return {
            "profile": self.name,
            "events": [event.as_dict() for event in self.events],
            "attacked_dns": sorted(
                [address, event_id]
                for address, event_id in self._attacked_dns.items()
            ),
            "attacked_http": sorted(
                [address, event_id]
                for address, event_id in self._attacked_http.items()
            ),
            "surge_bp": int(round(self._surge * 10_000)),
            "tallies": sorted(
                [key, value] for key, value in self.tallies.items()
            ),
        }

    def state_dict(self) -> Dict[str, object]:
        """Full mutable state as JSON primitives (checkpoint snapshots).

        The drive-side state plus the measurement-side outage counters.
        The schedule itself is rebuilt from (seed, profile) at resume
        time and *verified* against the snapshot — structural refusal
        on disagreement.
        """
        state = self.drive_state()
        state["surge"] = self._surge
        state["metrics"] = self.metrics.snapshot()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`.

        The rebuilt plane replayed the same engine days before restore,
        so the snapshot must *agree* with what replay recomputed; any
        disagreement means the snapshot belongs to a different
        trajectory and is refused loudly.
        """
        if state.get("profile") != self.name:
            raise CheckpointCorruptError(
                f"attack snapshot was taken under profile "
                f"{state.get('profile')!r}, not {self.name!r}"
            )
        rebuilt = [event.as_dict() for event in self.events]
        if list(state["events"]) != rebuilt:
            raise CheckpointCorruptError(
                "attack snapshot's event schedule does not match the "
                "schedule rebuilt from (seed, profile); refusing to "
                "marry states from different trajectories"
            )
        saved_dns = {
            str(address): int(event_id)
            for address, event_id in state["attacked_dns"]
        }
        saved_http = {
            str(address): int(event_id)
            for address, event_id in state["attacked_http"]
        }
        if saved_dns != self._attacked_dns or saved_http != self._attacked_http:
            raise CheckpointCorruptError(
                "attack snapshot's attacked-address sets disagree with "
                "the replayed world's; the snapshot belongs to a "
                "different trajectory"
            )
        self._surge = float(state["surge"])
        self.tallies = {
            str(key): int(value) for key, value in state["tallies"]
        }
        self.metrics.restore(state["metrics"])
