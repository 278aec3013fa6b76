"""The Table II provider catalog.

Encodes the paper's per-provider identification data — CNAME substrings,
NS substrings, AS numbers, rerouting methods — together with the
simulation-side parameters needed to stand each platform up (market
share for the population model, Table V origin-IP-unchanged rates for
the admin model, pause support, residual policy, PoP counts).

``build_providers`` constructs all eleven platforms against a shared
simulated Internet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..clock import SimulationClock
from ..dns.root import DnsHierarchy
from ..errors import ConfigurationError
from ..net.asn import AsRegistry
from ..net.fabric import NetworkFabric
from ..net.ipaddr import AddressAllocator
from .portal import ReroutingMethod
from .provider import DpsProvider, ProviderBuild
from .residual_policy import (
    AnswerWithOrigin,
    RefuseAfterTermination,
    ResidualPolicy,
)

__all__ = [
    "ProviderSpec",
    "PAPER_PROVIDERS",
    "provider_spec",
    "normalised_market_shares",
    "build_providers",
]


@dataclass(frozen=True)
class ProviderSpec:
    """One row of Table II plus simulation parameters."""

    name: str
    infra_domain: str
    cname_substrings: Tuple[str, ...]
    ns_substrings: Tuple[str, ...]
    as_numbers: Tuple[int, ...]
    rerouting_methods: Tuple[ReroutingMethod, ...]
    #: Fraction of DPS customers on this platform (drives Fig. 2).
    market_share: float
    #: Table V: fraction of JOIN/RESUME customers who do NOT rotate
    #: their origin IP.
    ip_unchanged_rate: float
    #: Whether the platform offers pause-to-origin (§IV-C-1 found this
    #: only at Cloudflare and Incapsula).
    supports_pause: bool
    #: True for platforms that keep answering with stored origins after
    #: termination — the residual-resolution vulnerability.
    vulnerable_residual: bool
    #: For providers with several rerouting methods: probability a new
    #: customer uses CNAME-based rerouting (Fig. 6 for Cloudflare).
    cname_share: float = 1.0
    num_pops: int = 8
    num_edges: int = 8
    num_customer_nameservers: int = 0
    ns_host_suffix: Optional[str] = None
    scrub_capacity_per_pop_gbps: float = 150.0
    #: Fraction of edges holding IPs in other organisations' ranges
    #: (the Akamai/CDNetworks footnote-6 quirk).
    shared_ip_fraction: float = 0.0

    def make_residual_policy(self) -> ResidualPolicy:
        """The residual policy this platform ships with."""
        if self.vulnerable_residual:
            return AnswerWithOrigin()
        return RefuseAfterTermination()


_CF = ReroutingMethod.CNAME_BASED
_NS = ReroutingMethod.NS_BASED
_A = ReroutingMethod.A_BASED

#: The eleven providers of Table II.  Market shares follow the paper's
#: §V statistics (Cloudflare 79% of DPS customers, Incapsula 3.7%,
#: combined 82.6%) and Table V relative "Join & Resume" volumes for the
#: rest; they are normalised at use.
PAPER_PROVIDERS: List[ProviderSpec] = [
    ProviderSpec(
        name="akamai",
        infra_domain="edgekey.net",
        cname_substrings=("akamai", "edgekey", "edgesuite"),
        ns_substrings=("akam",),
        as_numbers=(32787, 12222, 20940, 16625, 35994),
        rerouting_methods=(_A, _CF),
        market_share=0.058,
        ip_unchanged_rate=0.580,
        supports_pause=False,
        vulnerable_residual=False,
        cname_share=0.70,
        num_pops=14,
        num_edges=16,
        shared_ip_fraction=0.015,
    ),
    ProviderSpec(
        name="cloudflare",
        infra_domain="cloudflare.com",
        cname_substrings=("cloudflare",),
        ns_substrings=("cloudflare",),
        as_numbers=(13335,),
        rerouting_methods=(_NS, _CF),
        market_share=0.790,
        ip_unchanged_rate=0.595,
        supports_pause=True,
        vulnerable_residual=True,
        cname_share=0.1005,
        num_pops=18,
        num_edges=16,
        num_customer_nameservers=391,
        ns_host_suffix="ns.cloudflare.com",
        scrub_capacity_per_pop_gbps=200.0,
    ),
    ProviderSpec(
        name="cloudfront",
        infra_domain="cloudfront.net",
        cname_substrings=("cloudfront",),
        ns_substrings=(),
        as_numbers=(16509,),
        rerouting_methods=(_CF,),
        market_share=0.058,
        ip_unchanged_rate=0.350,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=14,
        num_edges=16,
    ),
    ProviderSpec(
        name="cdn77",
        infra_domain="cdn77.org",
        cname_substrings=("cdn77",),
        ns_substrings=("cdn77",),
        as_numbers=(60068,),
        rerouting_methods=(_CF,),
        market_share=0.004,
        ip_unchanged_rate=0.938,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=6,
        num_edges=6,
    ),
    ProviderSpec(
        name="cdnetworks",
        infra_domain="cdngc.net",
        cname_substrings=("cdnga", "cdngc", "cdnetworks"),
        ns_substrings=("cdnetdns", "panthercdn"),
        as_numbers=(38107, 36408),
        rerouting_methods=(_CF,),
        market_share=0.005,
        ip_unchanged_rate=0.739,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=8,
        num_edges=8,
        shared_ip_fraction=0.015,
    ),
    ProviderSpec(
        name="dosarrest",
        infra_domain="dosarrest.com",
        cname_substrings=(),
        ns_substrings=(),
        as_numbers=(19324,),
        rerouting_methods=(_A,),
        market_share=0.007,
        ip_unchanged_rate=0.418,
        supports_pause=False,
        vulnerable_residual=False,
        cname_share=0.0,
        num_pops=4,
        num_edges=4,
    ),
    ProviderSpec(
        name="edgecast",
        infra_domain="edgecastcdn.net",
        cname_substrings=("edgecastcdn", "alphacdn"),
        ns_substrings=("edgecastcdn", "alphacdn"),
        as_numbers=(15133, 14210, 14153),
        rerouting_methods=(_CF,),
        market_share=0.005,
        ip_unchanged_rate=0.667,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=8,
        num_edges=8,
    ),
    ProviderSpec(
        name="fastly",
        infra_domain="fastly.net",
        cname_substrings=("fastly",),
        ns_substrings=("fastly",),
        as_numbers=(54113, 394192),
        rerouting_methods=(_CF,),
        market_share=0.014,
        ip_unchanged_rate=0.571,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=10,
        num_edges=10,
    ),
    ProviderSpec(
        name="incapsula",
        infra_domain="incapdns.net",
        cname_substrings=("incapdns",),
        ns_substrings=("incapdns",),
        as_numbers=(19551,),
        rerouting_methods=(_CF,),
        market_share=0.037,
        ip_unchanged_rate=0.634,
        supports_pause=True,
        vulnerable_residual=True,
        num_pops=10,
        num_edges=10,
        scrub_capacity_per_pop_gbps=180.0,
    ),
    ProviderSpec(
        name="limelight",
        infra_domain="llnwd.net",
        cname_substrings=("llnw", "lldns"),
        ns_substrings=("llnw", "lldns"),
        as_numbers=(22822, 38622, 55429),
        rerouting_methods=(_CF,),
        market_share=0.001,
        ip_unchanged_rate=0.667,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=8,
        num_edges=8,
    ),
    ProviderSpec(
        name="stackpath",
        infra_domain="hwcdn.net",
        cname_substrings=("stackpath", "netdna", "hwcdn"),
        ns_substrings=("netdna", "hwcdn"),
        as_numbers=(54104, 20446),
        rerouting_methods=(_CF,),
        market_share=0.004,
        ip_unchanged_rate=0.725,
        supports_pause=False,
        vulnerable_residual=False,
        num_pops=6,
        num_edges=6,
    ),
]


def provider_spec(name: str) -> ProviderSpec:
    """Look a spec up by provider name."""
    for spec in PAPER_PROVIDERS:
        if spec.name == name:
            return spec
    raise ConfigurationError(f"unknown provider: {name!r}")


def normalised_market_shares(
    specs: Optional[List[ProviderSpec]] = None,
) -> Dict[str, float]:
    """Market shares rescaled to sum to exactly 1."""
    chosen = specs if specs is not None else PAPER_PROVIDERS
    total = sum(s.market_share for s in chosen)
    return {s.name: s.market_share / total for s in chosen}


def build_providers(
    fabric: NetworkFabric,
    clock: SimulationClock,
    hierarchy: DnsHierarchy,
    as_registry: AsRegistry,
    allocator: AddressAllocator,
    offnet_allocator: Optional[AddressAllocator] = None,
    specs: Optional[List[ProviderSpec]] = None,
) -> Dict[str, DpsProvider]:
    """Stand up every provider platform in the catalog."""
    providers: Dict[str, DpsProvider] = {}
    for spec in specs if specs is not None else PAPER_PROVIDERS:
        build = ProviderBuild(
            name=spec.name,
            infra_domain=spec.infra_domain,
            as_numbers=list(spec.as_numbers),
            rerouting_methods=list(spec.rerouting_methods),
            ns_host_suffix=spec.ns_host_suffix,
            supports_pause=spec.supports_pause,
            num_pops=spec.num_pops,
            num_edges=spec.num_edges,
            num_customer_nameservers=spec.num_customer_nameservers,
            scrub_capacity_per_pop_gbps=spec.scrub_capacity_per_pop_gbps,
            shared_ip_fraction=spec.shared_ip_fraction,
        )
        providers[spec.name] = DpsProvider(
            build,
            fabric,
            clock,
            hierarchy,
            as_registry,
            allocator,
            residual_policy=spec.make_residual_policy(),
            offnet_allocator=offnet_allocator,
        )
    return providers
