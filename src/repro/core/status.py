"""DPS status and rerouting-mechanism determination (Table III, §IV-B-2).

Given one day's A/CNAME/NS snapshot of a site and the provider matcher:

* **ON** — an A record falls inside a provider's ranges (the traffic is
  actually rerouted; none of the studied providers web-host, so a
  provider address means protection is in effect);
* **OFF** — the domain is delegated to a DPS (CNAME-matched with any
  provider, or NS-matched with Cloudflare) but the A record points at a
  non-DPS address — typically the origin;
* **NONE** — no DPS involvement detected.

The Akamai/CDNetworks shared-IP quirk (footnote 6) is handled the way
the paper handled it: cases where a CNAME matches one of those two
providers but the address sits in another organisation's ranges can be
reclassified as ON when the address appears in a caller-supplied set of
known off-net edge addresses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional

from ..dps.portal import ReroutingMethod
from ..net.ipaddr import IPv4Address
from .collector import DomainSnapshot
from .matching import ProviderMatcher

__all__ = ["DpsStatus", "DpsObservation", "StatusDeterminer"]

#: Providers whose NS-matching indicates delegation-based DPS (Table III
#: names Cloudflare only).
_NS_REROUTING_PROVIDERS = frozenset({"cloudflare"})

#: Providers affected by the shared/off-net edge-address quirk.
_SHARED_IP_PROVIDERS = frozenset({"akamai", "cdnetworks"})


class DpsStatus:
    """The three statuses of Table III, plus an explicit data hole.

    ``UNMEASURED`` is not part of the paper's taxonomy: it marks a day
    where resolution gave up inside its retry budget, so the site's
    status that day is *unknown* — distinct from NONE, which is a
    positive observation of no DPS involvement.  Behaviour detection
    skips UNMEASURED days (carry-forward) rather than reading them as
    protection changes.
    """

    ON = "ON"
    OFF = "OFF"
    NONE = "NONE"
    UNMEASURED = "UNMEASURED"


@dataclass(frozen=True, slots=True)
class DpsObservation:
    """What the measurement concluded about one site on one day."""

    www: str
    day: int
    status: str
    provider: Optional[str] = None
    rerouting: Optional[ReroutingMethod] = None

    @property
    def is_measured(self) -> bool:
        """False for an UNMEASURED data hole."""
        return self.status != DpsStatus.UNMEASURED


class StatusDeterminer:
    """Applies Table III to snapshots."""

    def __init__(
        self,
        matcher: ProviderMatcher,
        shared_edge_ips: Optional[FrozenSet[IPv4Address]] = None,
    ) -> None:
        self._matcher = matcher
        self._shared_edge_ips = shared_edge_ips or frozenset()

    def observe(self, snapshot: DomainSnapshot) -> DpsObservation:
        """Classify one snapshot."""
        if not snapshot.measured:
            return DpsObservation(
                www=str(snapshot.www),
                day=snapshot.day,
                status=DpsStatus.UNMEASURED,
            )
        a_provider = self._matcher.a_match_any(snapshot.a_records)
        cname_provider = self._matcher.cname_match_any(snapshot.cnames)
        ns_provider = self._matcher.ns_match_any(snapshot.ns_targets)

        if a_provider is not None:
            return DpsObservation(
                www=str(snapshot.www),
                day=snapshot.day,
                status=DpsStatus.ON,
                provider=a_provider,
                rerouting=self._infer_rerouting(a_provider, cname_provider, ns_provider),
            )

        # Footnote-6 correction: a CNAME match against Akamai/CDNetworks
        # whose address is a known off-net edge is really ON.
        if (
            cname_provider in _SHARED_IP_PROVIDERS
            and any(ip in self._shared_edge_ips for ip in snapshot.a_records)
        ):
            return DpsObservation(
                www=str(snapshot.www),
                day=snapshot.day,
                status=DpsStatus.ON,
                provider=cname_provider,
                rerouting=ReroutingMethod.CNAME_BASED,
            )

        delegated_provider = cname_provider
        if delegated_provider is None and ns_provider in _NS_REROUTING_PROVIDERS:
            delegated_provider = ns_provider
        if delegated_provider is not None:
            rerouting = (
                ReroutingMethod.CNAME_BASED
                if cname_provider is not None
                else ReroutingMethod.NS_BASED
            )
            return DpsObservation(
                www=str(snapshot.www),
                day=snapshot.day,
                status=DpsStatus.OFF,
                provider=delegated_provider,
                rerouting=rerouting,
            )
        return DpsObservation(www=str(snapshot.www), day=snapshot.day, status=DpsStatus.NONE)

    def _infer_rerouting(
        self,
        a_provider: str,
        cname_provider: Optional[str],
        ns_provider: Optional[str],
    ) -> ReroutingMethod:
        """§IV-B-2: CNAME-matching present → CNAME-based; otherwise
        NS-based for Cloudflare and A-based for the rest (Akamai)."""
        if cname_provider == a_provider:
            return ReroutingMethod.CNAME_BASED
        if ns_provider == a_provider and a_provider in _NS_REROUTING_PROVIDERS:
            return ReroutingMethod.NS_BASED
        return ReroutingMethod.A_BASED
