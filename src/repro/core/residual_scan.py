"""Residual-resolution scanners — the §V case studies.

**Cloudflare** (NS-based rerouting): harvest the ``*.ns.cloudflare.*``
nameserver hostnames observed in customer delegations, resolve each to
its anycast address, then query the top-N ``www`` hostnames *directly*
against randomly-chosen nameservers, rotating across five geographic
vantage points so the load spreads over distinct PoPs (Fig. 7).  A
nameserver answers for sites whose records it still holds and refuses
the rest.

**Incapsula** (CNAME-based rerouting): the canonical names are assigned
unpredictably and deleted on departure, so they must be *collected
while customers are active* (§III-B).  The scanner accumulates every
``incapdns`` CNAME seen in daily snapshots and keeps resolving those
canonicals — long after the customer left.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..dns.client import DnsClient
from ..dns.message import Rcode
from ..dns.name import DomainName
from ..dns.records import RecordType
from ..dns.resolver import RecursiveResolver
from ..net.ipaddr import IPv4Address
from ..obs.metrics import MetricsRegistry
from ..rng import SeededRng, stable_hash
from .collector import DailySnapshot
from .matching import ProviderMatcher
from .pipeline import RetrievedRecord

__all__ = ["NameserverHarvest", "CloudflareScanner", "IncapsulaScanner"]


class NameserverHarvest:
    """Collects a provider's customer-facing nameserver identities.

    The paper extracted 391 nameservers carrying the unique string
    ``ns.cloudflare.com`` from observed NS records (§V-A-1).

    The harvest is a *set with a canonical order*: every read
    (:attr:`hostnames`, :meth:`state_dict`, :meth:`resolve_addresses`)
    walks the hostnames sorted lexicographically.  First-seen order is
    deliberately not part of the contract — it depends on which sites a
    process collects and in what interleaving, so a sharded run's merged
    harvest could never match a monolithic run's.  Sorted order is
    partition-independent: the union of per-shard harvests reads back
    exactly like the monolithic harvest.
    """

    def __init__(self, marker: str = "ns.cloudflare") -> None:
        self.marker = marker
        self._hostnames: Dict[DomainName, None] = {}

    def ingest(self, snapshots: Iterable[DailySnapshot]) -> None:
        """Harvest from daily collection snapshots' NS records."""
        for snapshot in snapshots:
            for domain in snapshot:
                for ns_target in domain.ns_targets:
                    if self.marker in str(ns_target):
                        self._hostnames.setdefault(DomainName(ns_target))

    def _sorted(self) -> List[DomainName]:
        return sorted(self._hostnames, key=str)

    @property
    def hostnames(self) -> List[DomainName]:
        """Every harvested nameserver hostname, in canonical order."""
        return self._sorted()

    def state_dict(self) -> List[str]:
        """The harvested hostnames, in canonical (sorted) order."""
        return [str(hostname) for hostname in self._sorted()]

    def restore_state(self, hostnames: Iterable[str]) -> None:
        """Reinstate the harvest captured by :meth:`state_dict`."""
        self._hostnames = {DomainName(hostname): None for hostname in hostnames}

    def resolve_addresses(self, resolver: RecursiveResolver) -> List[IPv4Address]:
        """Resolve each harvested hostname to its (anycast) address.

        One batched pass: the hostnames all sit under the provider's
        infrastructure zone, exactly the sibling-heavy shape the
        resolver's zone-cut memo exists for.  The batch walks the
        canonical sorted order, so the returned address list is the same
        whichever process(es) did the harvesting.
        """
        results = resolver.resolve_many(
            (hostname, RecordType.A) for hostname in self._sorted()
        )
        addresses: List[IPv4Address] = []
        for result in results:
            addresses.extend(result.addresses)
        return addresses

    def __len__(self) -> int:
        return len(self._hostnames)


class CloudflareScanner:  # repro: allow[REP063] -- constructed fresh inside each weekly sweep; never alive at a checkpoint barrier
    """Direct-query scanner against an NS-rerouting provider's fleet."""

    def __init__(
        self,
        nameserver_ips: Sequence["IPv4Address | str"],
        vantage_clients: Sequence[DnsClient],
        provider: str = "cloudflare",
        rng: Optional[SeededRng] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not nameserver_ips:
            raise ValueError("scanner needs at least one nameserver address")
        if not vantage_clients:
            raise ValueError("scanner needs at least one vantage client")
        self._nameserver_ips = [IPv4Address(ip) for ip in nameserver_ips]
        self._clients = list(vantage_clients)
        self.provider = provider
        #: Nameserver choice is random (§V-A-2: "randomly-chosen
        #: nameservers"); a private deterministic stream keeps results
        #: reproducible when the caller has no stream to fork.
        self._rng = (
            rng
            if rng is not None
            else SeededRng(stable_hash("cloudflare-scanner", provider))  # repro: allow[REP042] -- fallback is deterministically seeded from the provider name; kept for direct-construction tests
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.queries_answered = 0
        self.queries_ignored = 0
        #: Hostnames whose sweep was throttled/shed from *every* vantage
        #: point — unmeasured this week, never recorded as absent.
        self.queries_throttled = 0

    def scan(
        self,
        hostnames: Iterable["DomainName | str"],
        start_index: int = 0,
    ) -> List[RetrievedRecord]:
        """Retrieve the A records the provider still holds.

        Each hostname is queried at a *randomly-chosen* nameserver from
        the next vantage point in rotation — the paper's way of
        spreading the measurement across PoPs (Fig. 7).  The choices are
        independent: vantage rotation must not lock a vantage point to a
        fixed nameserver subset, which is what an aligned
        ``index % len`` stride does whenever the fleet size divides
        evenly by the vantage count.

        Both per-hostname decisions are *position-independent*: the
        nameserver choice draws from a stream forked off ``rng`` by the
        hostname itself (not from the stream's running position), and
        the vantage rotation uses the hostname's global index —
        ``start_index`` is the offset of the first hostname in the full
        population.  A process scanning only a slice of the population
        therefore queries each hostname at exactly the (vantage,
        nameserver) pair the whole-population scan would.

        Provider defenses may throttle a query; the admission verdict
        keys on the client's region, so the scanner degrades gracefully
        by rotating through the *other* vantage points before giving up.
        A hostname refused from every vantage counts in
        :attr:`queries_throttled` — an unmeasured sweep, never an
        absence observation.  Rotation never runs in an unthrottled
        sweep, so traffic-free scans stay byte-identical.
        """
        retrieved: List[RetrievedRecord] = []
        for index, hostname in enumerate(hostnames, start=start_index):
            ns_ip = self._rng.fork(str(DomainName(hostname))).choice(
                self._nameserver_ips
            )
            response = None
            throttled_everywhere = True
            for step in range(len(self._clients)):
                client = self._clients[(index + step) % len(self._clients)]
                response = client.query(ns_ip, hostname, RecordType.A)
                self.metrics.incr("scan.cloudflare.queries")
                # Duck-typed like the fabric's handlers: stub clients
                # without throttle tracking are never throttled.
                if not getattr(client, "last_throttled", False):
                    throttled_everywhere = False
                    break
            if throttled_everywhere:
                self.queries_throttled += 1
                self.metrics.incr("scan.cloudflare.throttled")
                continue
            if response is None or response.rcode is not Rcode.NOERROR or not response.answers:
                self.queries_ignored += 1
                self.metrics.incr("scan.cloudflare.ignored")
                continue
            addresses = tuple(
                record.address
                for record in response.answers
                if record.rtype is RecordType.A
            )
            if not addresses:
                self.queries_ignored += 1
                self.metrics.incr("scan.cloudflare.ignored")
                continue
            self.queries_answered += 1
            self.metrics.incr("scan.cloudflare.answered")
            retrieved.append(
                RetrievedRecord(
                    www=str(DomainName(hostname)),
                    provider=self.provider,
                    addresses=addresses,
                )
            )
        return retrieved


class IncapsulaScanner:
    """CNAME-tracking scanner against a CNAME-rerouting provider."""

    def __init__(
        self,
        resolver: RecursiveResolver,
        matcher: ProviderMatcher,
        provider: str = "incapsula",
    ) -> None:
        self._resolver = resolver
        self._matcher = matcher
        self.provider = provider
        #: canonical name → the customer www hostname it was seen at.
        self._canonicals: Dict[DomainName, str] = {}

    def ingest(self, snapshots: Iterable[DailySnapshot]) -> None:
        """Accumulate the provider's CNAMEs from daily snapshots."""
        for snapshot in snapshots:
            for domain in snapshot:
                for target in domain.cnames:
                    if self._matcher.cname_match(target) == self.provider:
                        self._canonicals.setdefault(DomainName(target), str(domain.www))

    @property
    def known_canonicals(self) -> Dict[DomainName, str]:
        """Every collected canonical and the site it belonged to."""
        return dict(self._canonicals)

    def state_dict(self) -> Dict[str, object]:
        """Persistent mutable state: canonicals (ordered) + resolver."""
        return {
            "canonicals": [
                [str(canonical), www] for canonical, www in self._canonicals.items()
            ],
            "resolver": self._resolver.state_dict(),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        """Reinstate state captured by :meth:`state_dict`."""
        self._canonicals = {
            DomainName(canonical): www for canonical, www in state["canonicals"]
        }
        self._resolver.restore_state(state["resolver"])

    def scan(self) -> List[RetrievedRecord]:
        """Resolve every known canonical and keep what answers.

        Resolution of the canonical runs through the provider's own
        delegation, so a terminated customer's canonical reaching the
        provider's nameservers exercises its residual policy exactly
        like a direct query would.
        """
        self._resolver.purge_cache()
        canonicals = list(self._canonicals.items())
        results = self._resolver.resolve_many(
            (canonical, RecordType.A) for canonical, _ in canonicals
        )
        retrieved: List[RetrievedRecord] = []
        for (canonical, www), result in zip(canonicals, results):
            if not result.addresses:
                continue
            self._resolver.metrics.incr("scan.incapsula.answered")
            retrieved.append(
                RetrievedRecord(
                    www=www,
                    provider=self.provider,
                    addresses=tuple(result.addresses),
                    canonical=str(canonical),
                )
            )
        return retrieved
