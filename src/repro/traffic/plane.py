"""The background-load plane: client populations vs. provider defenses.

A :class:`TrafficPlane` models everything the measurement study is *not*
sending: millions of daily DNS queries from per-region resolver
populations against the providers' nameserver fleets.  The model runs at
day granularity off the :class:`~repro.clock.SimulationClock` — once per
simulated day :meth:`drive_day` plays out the whole region-by-region
load pattern, feeds the provider defense stack
(:mod:`repro.traffic.defense`), and accumulates integer tallies.

Two sides, two consistency rules
--------------------------------
The plane straddles the shard boundary, so its state is split:

* **World side** (``drive_day``): buckets, breakers, the load tier and
  the ``tallies`` dict.  Driven from the world engine's day step, which
  every shard worker replays identically — so this state is *replicated*,
  never partitioned.  Shard merging checks it for byte agreement
  (:func:`repro.shard.merge.merge_payloads`); summing it would multiply
  the background load by the shard count.
* **Measurement side** (``admit_dns``): defense verdicts against the
  study's own deliveries.  The verdict is a *pure function* of
  (day, address, qname, region) hashed against the current tier's
  throttle probability — no mutable counters on the admission path, so
  verdicts are independent of delivery order and identical across shard
  counts (the REP06x order-free requirement).  Only the
  :class:`~repro.obs.metrics.MetricsRegistry` counters record what was
  shed, and those merge by commutative sum like every other counter.

The deterministic per-(day, …) verdict also gives throttling its
*retry-after* semantics: retrying the same query against the same server
on the same day is futile by construction, so clients fail over to
another server or vantage instead of burning their retry budget.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, TYPE_CHECKING, Tuple

from ..clock import SimulationClock
from ..dns.message import DnsQuery, DnsResponse
from ..errors import CheckpointCorruptError, ConfigurationError
from ..markers import pure_function
from ..net.geo import Region
from ..net.ipaddr import IPv4Address
from ..net.traffic import zipf_weights
from ..obs.metrics import MetricsRegistry, defense_counter
from ..rng import SeededRng, stable_hash
from .defense import AdaptiveLimiter, CircuitBreaker, TokenBucket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .profiles import TrafficProfile

__all__ = ["TrafficVerdict", "TrafficPlane"]


class TrafficVerdict(NamedTuple):
    """What the defense stack decided for one measurement delivery.

    ``outcome`` is ``"throttled"`` (rate-limit drop, the client sees a
    timeout) or ``"shed"`` (breaker open / load shedding, the client
    sees a synthetic REFUSED).  ``latency_ms`` is the retry-after cost
    charged to the caller's retry budget.
    """

    outcome: str
    response: Optional[DnsResponse] = None
    latency_ms: int = 0


class TrafficPlane:
    """Deterministic background load plus the provider defense stack."""

    def __init__(
        self,
        profile: "TrafficProfile",
        clock: SimulationClock,
        rng: SeededRng,
        fleets: Dict[str, List[IPv4Address]],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not fleets or all(not addresses for addresses in fleets.values()):
            raise ConfigurationError(
                "a traffic plane needs at least one provider nameserver"
            )
        self.profile = profile
        self.name = profile.name
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._clock = clock
        self._rng = rng
        #: Provider fleets in sorted provider order (drive iteration order).
        self._fleets: List[Tuple[str, List[IPv4Address]]] = [
            (provider, list(fleets[provider])) for provider in sorted(fleets)
        ]
        self._provider_of: Dict[IPv4Address, str] = {
            address: provider
            for provider, addresses in self._fleets
            for address in addresses
        }
        self._total_addresses = len(self._provider_of)
        #: Per-nameserver daily capacity, derived from the profile's
        #: target utilisation so profiles keep their intended load tier
        #: regardless of how many nameservers the catalog deploys.
        expected_daily = profile.base_daily_queries * len(profile.regions)
        self.ns_capacity_per_day = max(
            1,
            int(
                expected_daily
                / self._total_addresses
                / profile.target_utilization
            ),
        )

        self._zipf_shares = zipf_weights(
            profile.clients_per_region, profile.zipf_exponent
        )
        self._buckets: Dict[Tuple[str, int], TokenBucket] = {
            (region, index): TokenBucket(
                capacity=profile.client_burst_capacity,
                rate_per_day=profile.client_rate_per_day,
            )
            for region in profile.regions
            for index in range(profile.clients_per_region)
        }
        self._breakers: Dict[str, CircuitBreaker] = {
            str(address): CircuitBreaker(
                str(address),
                failure_threshold=profile.breaker_failure_threshold,
                base_backoff_days=profile.breaker_base_backoff_days,
                jitter_fraction=profile.breaker_jitter_fraction,
                max_backoff_days=profile.breaker_max_backoff_days,
            )
            for address in self._provider_of
        }
        self._limiter = AdaptiveLimiter(
            high_watermark=profile.high_watermark,
            critical_watermark=profile.critical_watermark,
        )
        #: World-side integer tallies (offered/admitted/throttled per
        #: region, served/shed per provider, tier-day and breaker counts).
        self.tallies: Dict[str, int] = {}

    @property
    def tier(self) -> str:
        """The current fleet-wide load tier."""
        return self._limiter.tier

    def monitored_addresses(self) -> List[IPv4Address]:
        """Every nameserver address the defense stack fronts."""
        return sorted(self._provider_of)

    # -- world side: the daily background load -------------------------

    def drive_day(self, attack_surge: float = 1.0) -> None:
        """Play out one simulated day of background load.

        Called from the world engine's day step, so every replica of the
        world (shard workers, checkpoint replays) drives the identical
        sequence.  Randomness forks per (day, region) label off the
        plane's base stream — position-independent, so a resumed process
        regenerates the same draws without serialising stream state.

        ``attack_surge`` couples the attack plane in: active floods
        multiply the day's offered volume (post-attack query waves).
        The default of 1.0 is an exact float identity, so an
        attack-free world computes byte-identical volumes.
        """
        day = self._clock.day
        self._bump("days")
        self._bump(f"tier_days.{self._limiter.tier}")
        rate_multiplier = self._limiter.rate_multiplier
        admitted_total = 0
        for region in self.profile.regions:
            rng = self._rng.fork(f"traffic-day-{day}-{region}")
            surge = self.profile.surge_factor(day)
            volume = int(
                self.profile.base_daily_queries
                * surge
                * attack_surge
                * (0.8 + 0.4 * rng.random())
            )
            head_volume = int(volume * self.profile.head_fraction)
            admitted = volume - head_volume  # the long tail, under limits
            throttled = 0
            for index, share in enumerate(self._zipf_shares):
                demand = int(head_volume * share)
                bucket = self._buckets[(region, index)]
                bucket.refill(rate_multiplier)
                got = bucket.consume(demand)
                admitted += got
                throttled += demand - got
            admitted_total += admitted
            self._bump(f"offered.{region}", volume)
            self._bump(f"admitted.{region}", admitted)
            self._bump(f"throttled.{region}", throttled)

        # Spread the admitted load across the fleets with per-(day,
        # address) hash skew; per-nameserver overloads feed the breakers.
        per_address = admitted_total / self._total_addresses
        for provider, addresses in self._fleets:
            served = shed = 0
            for address in addresses:
                key = str(address)
                skew = 0.5 + (stable_hash("ns-load", day, key) % 1_000) / 1_000.0
                load = int(per_address * skew)
                overloaded = load > self.ns_capacity_per_day
                breaker = self._breakers[key]
                trips_before = breaker.trips
                breaker.record_day(day, overloaded)
                if breaker.trips > trips_before:
                    self._bump(f"breaker_trips.{provider}")
                if breaker.is_open(day):
                    self._bump(f"breaker_open_days.{provider}")
                    shed += load
                else:
                    served += load
                if overloaded:
                    self._bump(f"overload_days.{provider}")
            self._bump(f"served.{provider}", served)
            self._bump(f"shed.{provider}", shed)

        utilization = admitted_total / (
            self.ns_capacity_per_day * self._total_addresses
        )
        self._limiter.update(utilization)

    def _bump(self, key: str, amount: int = 1) -> None:
        if amount:
            self.tallies[key] = self.tallies.get(key, 0) + amount

    # -- measurement side: fabric admission ----------------------------

    @pure_function
    def admit_dns(
        self,
        address: IPv4Address,
        query: DnsQuery,
        region: Optional[Region],
    ) -> Optional[TrafficVerdict]:
        """Defense verdict for one measurement delivery, or None to admit.

        Order-free by construction: the throttle decision hashes
        (day, address, qname, region) against the tier's probability and
        the breaker check is a pure read.  Nothing on this path mutates
        plane state, so verdicts are identical no matter how deliveries
        interleave across shard workers — and a same-day retry of the
        same query is deterministically futile (retry-after semantics).
        """
        provider = self._provider_of.get(address)
        if provider is None:
            return None
        day = self._clock.day
        tier = self._limiter.tier
        if self._breakers[str(address)].is_open(day):
            self.metrics.incr(defense_counter(provider, tier, "shed"))
            self.metrics.incr(defense_counter(provider, tier, "refused"))
            return TrafficVerdict(
                "shed",
                DnsResponse.refused(query),
                self.profile.retry_after_ms,
            )
        probability = self._limiter.throttle_probability
        if probability > 0.0:
            region_name = region.name if region is not None else ""
            draw = stable_hash(
                "traffic-admit", day, str(address), str(query.qname), region_name
            ) % 10_000
            if draw < int(probability * 10_000):
                self.metrics.incr(defense_counter(provider, tier, "throttled"))
                return TrafficVerdict(
                    "throttled", None, self.profile.retry_after_ms
                )
        return None

    # -- checkpoint / shard support ------------------------------------

    def drive_state(self) -> Dict[str, object]:
        """The world-side state every shard replica must agree on.

        This is the shard payload's ``traffic`` entry: merged by byte
        agreement, never summed (the background load is replicated per
        worker, not partitioned).
        """
        return {
            "profile": self.name,
            "tier": self._limiter.tier,
            "buckets": sorted(
                [region, index, bucket.level]
                for (region, index), bucket in self._buckets.items()
            ),
            "breakers": sorted(
                [name, b.state, b.failures, b.trips, b.open_until]
                for name, b in self._breakers.items()
            ),
            "tallies": sorted(
                [key, value] for key, value in self.tallies.items()
            ),
        }

    def state_dict(self) -> Dict[str, object]:
        """Full mutable state as JSON primitives (checkpoint snapshots).

        The drive-side state plus the measurement-side defense counters.
        Configuration (fleets, capacities, zipf shares) is rebuilt from
        the profile at resume time, exactly like fault-plan rules.
        """
        state = self.drive_state()
        state["metrics"] = self.metrics.snapshot()
        return state

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        if state.get("profile") != self.name:
            raise CheckpointCorruptError(
                f"traffic snapshot was taken under profile "
                f"{state.get('profile')!r}, not {self.name!r}"
            )
        self._limiter.restore_state({"tier": state["tier"]})
        saved_buckets = {
            (str(region), int(index)): int(level)
            for region, index, level in state["buckets"]
        }
        if set(saved_buckets) != set(self._buckets):
            raise CheckpointCorruptError(
                "traffic snapshot's client buckets do not match the "
                "rebuilt plane's population"
            )
        for key, level in saved_buckets.items():
            self._buckets[key].restore_state({"level": level})
        saved_breakers = {
            str(name): (str(kind), int(failures), int(trips), int(open_until))
            for name, kind, failures, trips, open_until in state["breakers"]
        }
        if set(saved_breakers) != set(self._breakers):
            raise CheckpointCorruptError(
                "traffic snapshot's breakers do not match the rebuilt "
                "plane's nameserver fleet"
            )
        for name, (kind, failures, trips, open_until) in saved_breakers.items():
            self._breakers[name].restore_state(
                {
                    "state": kind,
                    "failures": failures,
                    "trips": trips,
                    "open_until": open_until,
                }
            )
        self.tallies = {
            str(key): int(value) for key, value in state["tallies"]
        }
        self.metrics.restore(state["metrics"])
