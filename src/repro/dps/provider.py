"""DPS/CDN providers.

:class:`DpsProvider` composes everything a provider operates: announced
address space, an anycast PoP network with scrubbing centres, an edge
fleet of reverse proxies, nameserver fleets (an infra fleet for the
provider's own zone; for NS-rerouting providers, a large customer-zone
fleet with person-style names), and the customer database behind the
configuration portal.

The behaviours the paper measures all live here:

* **pause** rewrites the customer's records to the origin address —
  the temporary-exposure window of Fig. 5 (only providers that support
  pause-to-origin, i.e. Cloudflare and Incapsula, do this);
* **terminate** consults the provider's
  :class:`~repro.dps.residual_policy.ResidualPolicy`: answer-with-origin
  is the residual-resolution vulnerability (§III/§V), refuse is the
  clean behaviour, track-and-compare the proposed countermeasure;
* **uninformed departure** (footnote 9) leaves the configuration — and
  hence the *edge* answer — in place, which is why those cases do not
  leak origins;
* **purge** removes stale records after a plan-dependent horizon
  (the paper's own-site probe saw 4 weeks on the free plan, §V-A-3).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..clock import SECONDS_PER_DAY, SimulationClock
from ..dns.authoritative import AnswerPolicy, AuthoritativeServer
from ..dns.message import DnsQuery, DnsResponse
from ..dns.name import DomainName
from ..dns.records import RecordType, a_record, ns_record
from ..dns.resolver import RecursiveResolver
from ..dns.root import DnsHierarchy
from ..dns.zone import Zone
from ..errors import PlanError, PortalError
from ..net.anycast import AnycastNetwork
from ..net.asn import AsRegistry
from ..net.fabric import NetworkFabric
from ..net.geo import PointOfPresence, Region, WELL_KNOWN_REGIONS  # noqa: F401 (Region used in signatures)
from ..net.ipaddr import AddressAllocator, IPv4Address, IPv4Prefix
from ..net.traffic import TrafficFlow
from ..rng import stable_hash
from ..web.edge import EdgeServer
from .nameservers import NameserverFleet, generate_person_names
from .plans import DEFAULT_PLAN_POLICIES, PlanPolicy, PlanTier
from .portal import (
    CustomerRecord,
    CustomerStatus,
    OnboardingInstructions,
    ReroutingMethod,
)
from .residual_policy import AnswerWithOrigin, ResidualPolicy
from .scrubbing import ScrubReport, ScrubbingCenter, ScrubbingNetwork

__all__ = ["DpsProvider", "ProviderBuild"]

#: TTL of A records synthesized for terminated customers.  Short, like
#: the A records DPS providers serve generally (§VI-A footnote 13).
_RESIDUAL_A_TTL = 300


class _ProviderAnswerPolicy(AnswerPolicy):
    """Nameserver hook implementing per-customer answer behaviour.

    Active and paused customers are answered from zone data (the portal
    rewrites zones on state changes); *terminated, informed* customers
    are intercepted here and answered according to the provider's
    residual policy.
    """

    def __init__(self, provider: "DpsProvider") -> None:
        self._provider = provider
        self._resolving_publicly = False

    def intercept(self, server: AuthoritativeServer, query: DnsQuery) -> Optional[DnsResponse]:
        customer = self._provider._terminated_customer_for(query.qname)
        if customer is None or not customer.informed_departure:
            return None
        if self._resolving_publicly:
            # A track-and-compare public lookup looped back to us; the
            # provider's own stale answer must not count as evidence the
            # customer is still present.
            return DnsResponse.refused(query)
        if query.qtype is not RecordType.A:
            return DnsResponse.refused(query)
        address = self._provider.residual_policy.records_after_termination(
            query.qname, customer.origin_ip, self._public_lookup
        )
        if address is None:
            return DnsResponse.refused(query)
        return DnsResponse(
            query=query,
            authoritative=True,
            answers=[a_record(query.qname, address, _RESIDUAL_A_TTL)],
        )

    def _public_lookup(self, hostname: DomainName) -> List[IPv4Address]:
        resolver = self._provider._public_resolver
        if resolver is None:
            return []
        self._resolving_publicly = True
        try:
            resolver.purge_cache()
            return resolver.resolve(hostname, RecordType.A).addresses
        finally:
            self._resolving_publicly = False


class ProviderBuild:
    """Construction parameters for a :class:`DpsProvider`.

    Kept separate from the Table II catalog entry so tests can build
    small bespoke providers without touching catalog data.
    """

    def __init__(
        self,
        name: str,
        infra_domain: str,
        as_numbers: List[int],
        rerouting_methods: List[ReroutingMethod],
        cname_label_domain: Optional[str] = None,
        ns_host_suffix: Optional[str] = None,
        supports_pause: bool = False,
        num_pops: int = 8,
        num_edges: int = 8,
        num_customer_nameservers: int = 0,
        scrub_capacity_per_pop_gbps: float = 100.0,
        prefix_length: int = 20,
        shared_ip_fraction: float = 0.0,
    ) -> None:
        self.name = name
        self.infra_domain = infra_domain
        self.as_numbers = list(as_numbers)
        self.rerouting_methods = list(rerouting_methods)
        self.cname_label_domain = cname_label_domain or infra_domain
        self.ns_host_suffix = ns_host_suffix
        self.supports_pause = supports_pause
        self.num_pops = num_pops
        self.num_edges = num_edges
        self.num_customer_nameservers = num_customer_nameservers
        self.scrub_capacity_per_pop_gbps = scrub_capacity_per_pop_gbps
        self.prefix_length = prefix_length
        self.shared_ip_fraction = shared_ip_fraction


class DpsProvider:
    """One DDoS-protection-service provider platform."""

    def __init__(
        self,
        build: ProviderBuild,
        fabric: NetworkFabric,
        clock: SimulationClock,
        hierarchy: DnsHierarchy,
        as_registry: AsRegistry,
        allocator: AddressAllocator,
        residual_policy: Optional[ResidualPolicy] = None,
        plan_policies: Optional[Dict[PlanTier, PlanPolicy]] = None,
        offnet_allocator: Optional[AddressAllocator] = None,
    ) -> None:
        self.build = build
        self.name = build.name
        self.infra_domain = DomainName(build.infra_domain)
        self.clock = clock
        self.residual_policy = residual_policy or AnswerWithOrigin()
        self.plan_policies = dict(plan_policies or DEFAULT_PLAN_POLICIES)
        self._fabric = fabric
        self._hierarchy = hierarchy
        self._customers: Dict[DomainName, CustomerRecord] = {}
        self._by_cname: Dict[DomainName, CustomerRecord] = {}
        self._public_resolver: Optional[RecursiveResolver] = hierarchy.make_resolver()

        # --- address space ------------------------------------------------
        self.prefixes: List[IPv4Prefix] = []
        for asn in build.as_numbers:
            prefix = allocator.allocate_prefix(build.prefix_length)
            as_registry.register(asn, self.name, [prefix])
            self.prefixes.append(prefix)
        self._edge_allocator = AddressAllocator(self.prefixes[0])
        self._ns_allocator = AddressAllocator(
            self.prefixes[-1] if len(self.prefixes) > 1 else self.prefixes[0]
        )
        if len(self.prefixes) == 1:
            # Carve edges and nameservers from disjoint halves.
            halves = list(self.prefixes[0].subnets(build.prefix_length + 1))
            self._edge_allocator = AddressAllocator(halves[0])
            self._ns_allocator = AddressAllocator(halves[1])
        self._offnet_allocator = offnet_allocator
        self.offnet_edge_ips: List[IPv4Address] = []

        # --- PoPs, anycast, scrubbing ----------------------------------------
        region_names = sorted(WELL_KNOWN_REGIONS)
        pick = stable_hash(self.name) % len(region_names)
        chosen = [
            WELL_KNOWN_REGIONS[region_names[(pick + i) % len(region_names)]]
            for i in range(min(build.num_pops, len(region_names)))
        ]
        self.pops = [
            PointOfPresence(f"{self.name}-pop-{r.name}", r) for r in chosen
        ]
        self.anycast = AnycastNetwork(f"{self.name}-anycast", self.pops)
        self.scrubbing = ScrubbingNetwork(
            [ScrubbingCenter(p.pop_id, build.scrub_capacity_per_pop_gbps) for p in self.pops]
        )

        # --- edge fleet --------------------------------------------------------
        self.edges: List[EdgeServer] = []
        for i in range(build.num_edges):
            ip = self._edge_allocator.allocate_address()
            edge = EdgeServer(self.name, ip, fabric)
            fabric.register_http(ip, edge)
            self.edges.append(edge)
        # Off-net edges (Akamai/CDNetworks quirk, footnote 6): edge IPs
        # held in other organisations' ranges.
        if build.shared_ip_fraction > 0 and offnet_allocator is not None:
            num_offnet = max(1, int(build.num_edges * build.shared_ip_fraction * 4))
            for _ in range(num_offnet):
                ip = offnet_allocator.allocate_address()
                edge = EdgeServer(self.name, ip, fabric)
                fabric.register_http(ip, edge)
                self.edges.append(edge)
                self.offnet_edge_ips.append(ip)

        # --- nameserver fleets -----------------------------------------------------
        policy = _ProviderAnswerPolicy(self)
        infra_ns_hosts = [
            self.infra_domain.child("nic").child(f"ns{i + 1}") for i in range(2)
        ]
        self.infra_fleet = NameserverFleet(
            self.name, infra_ns_hosts, fabric, self._ns_allocator,
            anycast=self.anycast, policy=policy,
        )
        self.infra_zone = Zone(self.infra_domain, primary_ns=infra_ns_hosts[0])
        for host in infra_ns_hosts:
            self.infra_zone.set_a(host, self.infra_fleet.address_of(host), ttl=SECONDS_PER_DAY)
        self.infra_fleet.backend.host_zone(self.infra_zone)

        self.customer_fleet: Optional[NameserverFleet] = None
        if build.num_customer_nameservers > 0:
            suffix = DomainName(build.ns_host_suffix or f"ns.{self.infra_domain}")
            labels = generate_person_names(build.num_customer_nameservers)
            hostnames = [suffix.child(label) for label in labels]
            self.customer_fleet = NameserverFleet(
                self.name, hostnames, fabric, self._ns_allocator,
                anycast=self.anycast, policy=policy,
            )
            # Customer-fleet hostnames resolve via the infra zone.
            for hostname in hostnames:
                self.infra_zone.set_a(
                    hostname, self.customer_fleet.address_of(hostname), ttl=SECONDS_PER_DAY
                )

        # Delegate the infra domain from its TLD so the world can find us.
        hierarchy.delegate_apex(
            self.infra_domain,
            infra_ns_hosts,
            glue={
                str(host): self.infra_fleet.address_of(host) for host in infra_ns_hosts
            },
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def customers(self) -> List[CustomerRecord]:
        """All customer records, including terminated-but-unpurged ones."""
        return list(self._customers.values())

    def customer_for(self, hostname: "DomainName | str") -> Optional[CustomerRecord]:
        """The customer record covering a hostname, if any."""
        name = DomainName(hostname)
        record = self._customers.get(name)
        if record is None and not name.is_apex:
            record = self._customers.get(name.apex.child("www"))
            if record is not None and record.hostname != name:
                record = None
        if record is None and name.is_apex:
            record = self._customers.get(name.child("www"))
        return record

    def _terminated_customer_for(self, qname: DomainName) -> Optional[CustomerRecord]:
        # Direct hostname, apex of an NS customer, or a CNAME canonical name.
        record = self._by_cname.get(qname)
        if record is None:
            record = self._customers.get(qname)
        if record is None and len(qname) >= 2:
            record = self._customers.get(qname.apex.child("www"))
        if record is not None and record.is_terminated:
            return record
        return None

    def plan_policy(self, plan: PlanTier) -> PlanPolicy:
        """The policy for a plan tier."""
        return self.plan_policies[plan]

    def nameserver_hostnames(self) -> List[DomainName]:
        """Every customer-facing nameserver hostname (scan harvest target)."""
        if self.customer_fleet is not None:
            return list(self.customer_fleet.hostnames)
        return list(self.infra_fleet.hostnames)

    def edge_for(
        self, hostname: "DomainName | str", onnet_only: bool = False
    ) -> EdgeServer:
        """Deterministic edge assignment for a customer hostname.

        A-based rerouting publishes the bare edge address in the
        customer's own zone with no CNAME trail, so an off-net
        (footnote-6) edge there is unattributable to the provider —
        neither the RouteViews origin match nor the CNAME correction
        can classify the site.  Providers put A-record customers on
        on-net edges (``onnet_only=True``); shared off-net addresses
        are reached through CNAME/NS rerouting, which keeps the
        provider-owned name in the resolution chain.
        """
        pool = self.edges
        if onnet_only:
            offnet = set(self.offnet_edge_ips)
            pool = [edge for edge in self.edges if edge.ip not in offnet]
        index = stable_hash(self.name, str(DomainName(hostname))) % len(pool)
        return pool[index]

    # ------------------------------------------------------------------
    # Portal operations
    # ------------------------------------------------------------------

    def onboard(
        self,
        hostname: "DomainName | str",
        origin_ip: "IPv4Address | str",
        rerouting: ReroutingMethod,
        plan: PlanTier = PlanTier.FREE,
        imported_records: Optional[List] = None,
    ) -> OnboardingInstructions:
        """Sign a customer up; returns the DNS changes they must make.

        With NS-based rerouting the provider imports the customer's
        existing zone records (``imported_records``) so auxiliary names
        — unprotected subdomains, MX records — keep resolving.  Only the
        proxied names point at edges; the imported ones keep whatever
        addresses they had, which is exactly the "Subdomains" and "DNS
        Records" origin-exposure vectors of Table I.
        """
        name = DomainName(hostname)
        origin = IPv4Address(origin_ip)
        if rerouting not in self.build.rerouting_methods:
            raise PortalError(
                f"{self.name} does not offer {rerouting}-based rerouting"
            )
        if rerouting is ReroutingMethod.CNAME_BASED and self.name == "cloudflare":
            if not self.plan_policy(plan).cname_setup_allowed:
                raise PlanError(
                    f"CNAME setup requires a business/enterprise plan, not {plan}"
                )
        existing = self._customers.get(name)
        if existing is not None:
            if not existing.is_terminated:
                raise PortalError(f"{name} is already a customer of {self.name}")
            # Re-joining: the stale record is superseded, not left behind.
            self._forget(existing)

        edge = self.edge_for(
            name, onnet_only=rerouting is ReroutingMethod.A_BASED
        )
        record = CustomerRecord(
            hostname=name,
            origin_ip=origin,
            rerouting=rerouting,
            plan=plan,
            edge_ip=edge.ip,
        )
        self._customers[name] = record
        for e in self.edges:
            e.configure_origin(name, origin)
            e.configure_origin(name.apex, origin)

        if rerouting is ReroutingMethod.NS_BASED:
            return self._onboard_ns(record, imported_records or [])
        if rerouting is ReroutingMethod.CNAME_BASED:
            return self._onboard_cname(record)
        return OnboardingInstructions(rerouting=rerouting, edge_ip=edge.ip)

    def _onboard_ns(
        self, record: CustomerRecord, imported_records: List
    ) -> OnboardingInstructions:
        if self.customer_fleet is None:
            raise PortalError(f"{self.name} has no NS-hosting fleet")
        hostnames = self.customer_fleet.hostnames
        first = stable_hash("ns-assign", self.name, str(record.hostname)) % len(hostnames)
        if len(hostnames) == 1:
            assigned = [hostnames[0]]
        else:
            second = (
                first + 1 + stable_hash("ns2", str(record.hostname)) % (len(hostnames) - 1)
            ) % len(hostnames)
            assigned = [hostnames[first], hostnames[second]]
        record.assigned_nameservers = assigned
        apex = record.hostname.apex
        zone = Zone(apex, primary_ns=assigned[0])
        for ns_host in assigned:
            zone.add(ns_record(apex, ns_host))
        zone.set_a(apex, record.edge_ip, ttl=300)
        zone.set_a(record.hostname, record.edge_ip, ttl=300)
        for imported in imported_records:
            if imported.name in (apex, record.hostname) and imported.rtype in (
                RecordType.A,
                RecordType.CNAME,
            ):
                continue  # proxied names get edge addresses, not imports
            zone.add(imported)
        self.customer_fleet.backend.host_zone(zone)
        return OnboardingInstructions(
            rerouting=ReroutingMethod.NS_BASED, nameservers=assigned
        )

    def _onboard_cname(self, record: CustomerRecord) -> OnboardingInstructions:
        label = format(stable_hash("cname", self.name, str(record.hostname)) % 16 ** 10, "010x")
        canonical = DomainName(self.build.cname_label_domain).child(label)
        record.cname = canonical
        self._by_cname[canonical] = record
        self.infra_zone.set_a(canonical, record.edge_ip, ttl=300)
        return OnboardingInstructions(
            rerouting=ReroutingMethod.CNAME_BASED, cname=canonical
        )

    def pause(self, hostname: "DomainName | str") -> None:
        """Disable protection without leaving the platform.

        The customer's records are rewritten to the *origin* address —
        the behaviour the paper observed at Cloudflare and Incapsula
        (§IV-C-1) that opens the temporary-exposure window.
        """
        record = self._require_customer(hostname, CustomerStatus.ACTIVE)
        if not self.build.supports_pause:
            raise PortalError(f"{self.name} does not support pausing protection")
        record.status = CustomerStatus.PAUSED
        self._point_records_at(record, record.origin_ip)

    def resume(self, hostname: "DomainName | str") -> None:
        """Re-enable protection after a pause."""
        record = self._require_customer(hostname, CustomerStatus.PAUSED)
        record.status = CustomerStatus.ACTIVE
        assert record.edge_ip is not None
        self._point_records_at(record, record.edge_ip)

    def update_origin(self, hostname: "DomainName | str", new_origin: "IPv4Address | str") -> None:
        """The admin changed the origin address in the portal."""
        record = self._require_customer(hostname, None)
        if record.is_terminated:
            raise PortalError(f"{hostname} has terminated service with {self.name}")
        record.origin_ip = IPv4Address(new_origin)
        for e in self.edges:
            e.configure_origin(record.hostname, record.origin_ip)
            e.configure_origin(record.hostname.apex, record.origin_ip)
        if record.status is CustomerStatus.PAUSED:
            self._point_records_at(record, record.origin_ip)

    def terminate(self, hostname: "DomainName | str", informed: bool = True) -> None:
        """The customer leaves the platform.

        ``informed=False`` models the customer who never tells the
        provider (footnote 9): the configuration — including the edge
        answer — stays in place, so no origin leaks.
        """
        record = self._require_customer(hostname, None)
        if record.is_terminated:
            raise PortalError(f"{hostname} already terminated at {self.name}")
        record.status = CustomerStatus.TERMINATED
        record.terminated_at = self.clock.now
        record.informed_departure = informed
        if not informed:
            return
        # Stop proxying; what DNS answers remains is up to the residual
        # policy, enforced at query time by the answer policy hook.
        for e in self.edges:
            e.remove_origin(record.hostname)
            e.remove_origin(record.hostname.apex)
        if record.rerouting is ReroutingMethod.NS_BASED and self.customer_fleet is not None:
            self.customer_fleet.backend.drop_zone(record.hostname.apex)
        elif record.rerouting is ReroutingMethod.CNAME_BASED and record.cname is not None:
            self.infra_zone.remove_all(record.cname, RecordType.A)

    def purge_expired(self) -> List[DomainName]:
        """Drop terminated customers past their plan's purge horizon.

        Run daily by the world's event engine; returns purged hostnames.
        """
        purged: List[DomainName] = []
        for name, record in list(self._customers.items()):
            if not record.is_terminated or record.terminated_at is None:
                continue
            horizon_days = self.plan_policy(record.plan).purge_horizon_days
            if horizon_days is None:
                continue
            age_days = (self.clock.now - record.terminated_at) // SECONDS_PER_DAY
            if age_days >= horizon_days:
                self._forget(record)
                purged.append(name)
        return purged

    def _forget(self, record: CustomerRecord) -> None:
        self._customers.pop(record.hostname, None)
        if record.cname is not None:
            self._by_cname.pop(record.cname, None)
        if record.rerouting is ReroutingMethod.NS_BASED and self.customer_fleet is not None:
            self.customer_fleet.backend.drop_zone(record.hostname.apex)
        for e in self.edges:
            e.remove_origin(record.hostname)
            e.remove_origin(record.hostname.apex)

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def absorb_attack(self, flow: TrafficFlow) -> ScrubReport:
        """Scrub an attack that was rerouted through the platform."""
        return self.scrubbing.scrub_distributed(flow)

    def absorb_attack_from(
        self, flow: TrafficFlow, bot_regions: List[Region]
    ) -> ScrubReport:
        """Scrub an attack launched from specific regions.

        Each bot's traffic lands on its anycast catchment PoP, so a
        geographically concentrated botnet overloads one scrubbing
        centre while the rest of the network sits idle.
        """
        if not bot_regions:
            return self.absorb_attack(flow)
        shares: Dict[str, float] = {}
        per_bot = 1.0 / len(bot_regions)
        for bot_region in bot_regions:
            pop = self.anycast.catchment(bot_region)
            shares[pop.pop_id] = shares.get(pop.pop_id, 0.0) + per_bot
        return self.scrubbing.scrub_weighted(shares, flow)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _require_customer(
        self, hostname: "DomainName | str", status: Optional[CustomerStatus]
    ) -> CustomerRecord:
        record = self._customers.get(DomainName(hostname))
        if record is None:
            raise PortalError(f"{hostname} is not a customer of {self.name}")
        if status is not None and record.status is not status:
            raise PortalError(
                f"{hostname} is {record.status}, expected {status} at {self.name}"
            )
        return record

    def _point_records_at(self, record: CustomerRecord, address: IPv4Address) -> None:
        if record.rerouting is ReroutingMethod.NS_BASED and self.customer_fleet is not None:
            apex = record.hostname.apex
            zone = self.customer_fleet.backend.zone_for(apex)
            if zone is not None and zone.origin == apex:
                zone.set_a(apex, address, ttl=300)
                zone.set_a(record.hostname, address, ttl=300)
        elif record.rerouting is ReroutingMethod.CNAME_BASED and record.cname is not None:
            self.infra_zone.set_a(record.cname, address, ttl=300)
        # A-based rerouting: the customer owns the record; nothing to do.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DpsProvider({self.name!r}, customers={len(self._customers)})"
