"""The composition root: a complete simulated Internet.

:class:`SimulatedInternet` wires every substrate together —
root/TLD DNS, hosting providers, the eleven DPS platforms, the website
population, the vantage-point cloud, the RouteViews database — and hands
the measurement core the same interfaces the paper's scanners had:
recursive resolvers, stub DNS clients, HTTP clients, and BGP data.

Address plan
------------
==================  =====================
10.0.0.0/9          DPS provider platforms
10.128.0.0/9        root/TLD infrastructure
172.16.0.0/12      hosting providers (origin space)
100.64.0.0/10       hosting overflow (very large populations only)
192.168.0.0/16      off-net ("shared ISP") edge addresses
198.18.0.0/15       vantage-point cloud
==================  =====================
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..clock import SimulationClock
from ..dns.client import DnsClient
from ..dns.resolver import RecursiveResolver
from ..dns.root import DnsHierarchy
from ..dps.catalog import PAPER_PROVIDERS, ProviderSpec, build_providers
from ..dps.multicdn import MultiCdnService
from ..dps.provider import DpsProvider
from ..errors import ConfigurationError
from ..faults.plan import FaultPlan
from ..faults.profiles import FaultProfile, profile as lookup_profile
from ..net.asn import AsRegistry
from ..net.fabric import NetworkFabric
from ..net.geo import PAPER_VANTAGE_REGIONS, Region, VantagePoint, region as lookup_region
from ..net.ipaddr import AddressAllocator
from ..net.routeviews import RouteViewsDb
from ..obs.metrics import MetricsRegistry
from ..rng import SeededRng
from ..traffic.plane import TrafficPlane
from ..traffic.profiles import traffic_profile as lookup_traffic
from ..web.http import HttpClient
from .admin import AdminBehaviorModel
from .config import WorldConfig
from .events import WorldEngine
from .hosting import HostingProvider
from .population import PopulationBuilder
from .website import Website

__all__ = ["SimulatedInternet"]

_NUM_HOSTING_PROVIDERS = 6
#: Sites per hosting provider before the fleet grows.  Each provider
#: owns one /16 origin pool (~65k addresses); capping occupancy at 50k
#: leaves headroom for origin moves and round-robin pools.  Populations
#: up to 300k sites keep the classic six-provider fleet, so every world
#: small enough to have existed before the cap stays byte-identical.
_SITES_PER_HOSTING_PROVIDER = 50_000
#: The 172.16.0.0/12 hosting space holds sixteen /16 pools; providers
#: beyond that draw from the CGNAT overflow block.
_PROVIDERS_PER_HOSTING_SPACE = 16
_MULTICDN_MEMBERS = ("fastly", "cloudfront", "akamai")


class SimulatedInternet:
    """Everything the study needs, wired together and ready to run."""

    def __init__(
        self,
        config: Optional[WorldConfig] = None,
        specs: Optional[List[ProviderSpec]] = None,
        with_multicdn: bool = True,
    ) -> None:
        self.config = config or WorldConfig()
        self.rng = SeededRng(self.config.seed)
        self.clock = SimulationClock()
        self.fabric = NetworkFabric()
        self.as_registry = AsRegistry()

        provider_space = AddressAllocator("10.0.0.0/9")
        infra_space = AddressAllocator("10.128.0.0/9")
        hosting_space = AddressAllocator("172.16.0.0/12")
        offnet_space = AddressAllocator("192.168.0.0/16")
        cloud_space = AddressAllocator("198.18.0.0/15")

        self.hierarchy = DnsHierarchy(self.fabric, self.clock, infra_space)

        # Off-net block: addresses some Akamai/CDNetworks edges hold that
        # belong to other organisations (footnote 6).
        offnet_prefix = offnet_space.allocate_prefix(17)
        self.as_registry.register(64600, "shared-isp", [offnet_prefix])
        offnet_allocator = AddressAllocator(offnet_prefix)

        # Vantage-point cloud.
        cloud_prefix = cloud_space.allocate_prefix(18)
        self.as_registry.register(64700, "cloudlab", [cloud_prefix])
        cloud_allocator = AddressAllocator(cloud_prefix)
        self.vantage_points: Dict[str, VantagePoint] = {}
        for name in PAPER_VANTAGE_REGIONS:
            self.vantage_points[name] = VantagePoint(
                name=f"vp-{name}",
                region=lookup_region(name),
                source_ip=cloud_allocator.allocate_address(),
            )

        # DPS platforms.
        self.specs: List[ProviderSpec] = list(specs if specs is not None else PAPER_PROVIDERS)
        self.providers: Dict[str, DpsProvider] = build_providers(
            self.fabric,
            self.clock,
            self.hierarchy,
            self.as_registry,
            provider_space,
            offnet_allocator=offnet_allocator,
            specs=self.specs,
        )

        # Hosting providers.  The fleet grows with the population so the
        # per-provider /16 origin pools never exhaust: six providers up
        # to 300k sites (the historical layout, unchanged for every
        # world that could previously be built), one more per 50k sites
        # beyond that, spilling into the CGNAT overflow space once the
        # hosting /12 is fully carved.
        num_hosting = max(
            _NUM_HOSTING_PROVIDERS,
            -(-self.config.population_size // _SITES_PER_HOSTING_PROVIDER),
        )
        hosting_overflow: Optional[AddressAllocator] = None
        self.hosting_providers: List[HostingProvider] = []
        for i in range(num_hosting):
            space = hosting_space
            if i >= _PROVIDERS_PER_HOSTING_SPACE:
                if hosting_overflow is None:
                    hosting_overflow = AddressAllocator("100.64.0.0/10")
                space = hosting_overflow
            self.hosting_providers.append(
                HostingProvider(
                    f"hostco{i + 1}",
                    64800 + i,
                    self.fabric,
                    self.hierarchy,
                    self.as_registry,
                    space,
                )
            )

        # Multi-CDN front-end (optional).
        self.multicdn: Optional[MultiCdnService] = None
        if with_multicdn:
            members = [m for m in _MULTICDN_MEMBERS if m in self.providers]
            if len(members) >= 2:
                self.multicdn = MultiCdnService("cedexis-like", members)

        # Administrator model and population.
        self.admin = AdminBehaviorModel(
            self.config, self.providers, self.specs, self.rng.fork("admin")
        )
        builder = PopulationBuilder(
            self.config,
            self.hosting_providers,
            self.providers,
            self.specs,
            self.admin,
            self.rng.fork("population"),
            multicdn=self.multicdn,
        )
        self.population: List[Website] = builder.build()
        self._by_www: Dict[str, Website] = {str(s.www): s for s in self.population}

        # BGP view, built after every organisation has announced.
        self.routeviews = RouteViewsDb.from_registry(self.as_registry)

        self.engine = WorldEngine(self)

    # ------------------------------------------------------------------
    # Scanner-facing interfaces
    # ------------------------------------------------------------------

    def make_resolver(
        self,
        region_name: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> RecursiveResolver:
        """A fresh recursive resolver, optionally pinned to a region.

        ``metrics`` lets callers aggregate query-plane counters across
        several resolvers into one registry (see ``repro bench``).
        """
        return self.hierarchy.make_resolver(
            self._region_or_none(region_name), metrics=metrics
        )

    def dns_client(
        self,
        region_name: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> DnsClient:
        """A stub client for direct-to-nameserver queries."""
        return DnsClient(
            self.fabric, self._region_or_none(region_name), metrics=metrics
        )

    def http_client(
        self,
        region_name: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> HttpClient:
        """An HTTP client sourced from a vantage point's address."""
        if region_name is None:
            return HttpClient(self.fabric, metrics=metrics)
        vp = self.vantage_point(region_name)
        return HttpClient(
            self.fabric,
            source_ip=vp.source_ip,
            region=vp.region,
            metrics=metrics,
        )

    def install_faults(
        self,
        profile: "FaultProfile | FaultPlan | str",
        metrics: Optional[MetricsRegistry] = None,
    ) -> FaultPlan:
        """Install a fault plan on the fabric and return it.

        Accepts a profile name (see :data:`repro.faults.PROFILES`), a
        :class:`~repro.faults.profiles.FaultProfile`, or a ready-built
        :class:`~repro.faults.plan.FaultPlan`.  Profiles are built at
        install time, so their day-windowed rules are relative to the
        clock's current day.  The plan's RNG is forked from the world's
        root RNG — installation never perturbs world dynamics.
        """
        if isinstance(profile, str):
            profile = lookup_profile(profile)
        if isinstance(profile, FaultProfile):
            plan = profile.build(
                self, metrics if metrics is not None else MetricsRegistry()
            )
        else:
            plan = profile
        self.fabric.fault_plan = plan
        return plan

    def install_traffic(
        self, profile: str, metrics: Optional[MetricsRegistry] = None
    ) -> TrafficPlane:
        """Install the named background-traffic plane and return it.

        From then on the world engine drives one day of background load
        per day step (see :data:`repro.traffic.TRAFFIC_PROFILES`), and
        the provider defense stack may throttle or shed measurement
        deliveries through the fabric.  The plane's RNG is forked from
        the world's root RNG — installation never perturbs world
        dynamics.
        """
        plane = lookup_traffic(profile).build(self, metrics)
        self.fabric.traffic_plane = plane
        return plane

    def install_attacks(
        self, profile: str, metrics: Optional[MetricsRegistry] = None
    ):
        """Install the named attack plane and return it.

        The schedule (see :data:`repro.attacks.ATTACK_PROFILES`) is
        generated at install time from a label-forked RNG stream, so
        event days are relative to the clock's current day and every
        replica that installs at the same day rebuilds it
        byte-identically.  Wave verdicts are pure hashes — installation
        never perturbs baseline world dynamics.
        """
        # Imported here, not at module top: repro.attacks imports the
        # world's admin/website modules, and this module is part of the
        # same package's init chain.
        from ..attacks.profiles import attack_profile as lookup_attack

        plane = lookup_attack(profile).build(self, metrics)
        self.fabric.attack_plane = plane
        return plane

    def vantage_point(self, region_name: str) -> VantagePoint:
        """One of the five measurement vantage points (Fig. 7)."""
        try:
            return self.vantage_points[region_name]
        except KeyError:
            raise ConfigurationError(f"no vantage point in {region_name!r}") from None

    def website(self, www: str) -> Website:
        """Ground-truth lookup of a site by its www hostname."""
        try:
            return self._by_www[www]
        except KeyError:
            raise ConfigurationError(f"unknown website: {www!r}") from None

    def provider(self, name: str) -> DpsProvider:
        """One of the DPS platforms by name."""
        try:
            return self.providers[name]
        except KeyError:
            raise ConfigurationError(f"unknown provider: {name!r}") from None

    def _region_or_none(self, region_name: Optional[str]) -> Optional[Region]:
        if region_name is None:
            return None
        return lookup_region(region_name)

    # ------------------------------------------------------------------
    # Ground-truth summaries
    # ------------------------------------------------------------------

    def dps_customers(self) -> List[Website]:
        """All sites currently on a DPS platform (ground truth)."""
        return [site for site in self.population if site.provider is not None]

    def adoption_by_provider(self) -> Dict[str, int]:
        """Ground-truth customer counts per provider."""
        counts: Dict[str, int] = {}
        for site in self.dps_customers():
            assert site.provider is not None
            counts[site.provider.name] = counts.get(site.provider.name, 0) + 1
        return counts
