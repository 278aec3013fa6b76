"""Measurement-plane degradation under provider defenses.

The satellite regression this file pins down: a *throttled* nameserver is
healthy — the resolver must fail over (and, with nowhere to go, give up
to an UNMEASURED observation) but never quarantine it the way it
quarantines a genuinely broken SERVFAIL/timeout server.  Likewise the
synthetic REFUSED of a load-shed delivery must never surface as DNS data
(it would fabricate record-purge observations), and the scanner must
rotate vantage points before declaring a sweep unmeasured.
"""

import pytest

from repro.clock import SimulationClock
from repro.core.residual_scan import CloudflareScanner
from repro.dns.client import DnsClient
from repro.dns.message import DnsQuery, DnsResponse, Rcode
from repro.dns.name import DomainName
from repro.attacks.plane import AttackVerdict
from repro.dns.records import RecordType, a_record
from repro.dns.resolver import RecursiveResolver
from repro.faults.plan import FaultVerdict
from repro.net.geo import region
from repro.net.ipaddr import IPv4Address
from repro.obs.metrics import MetricsRegistry
from repro.rng import SeededRng
from repro.traffic import TrafficVerdict

THROTTLED_IP = IPv4Address("10.0.0.53")
HEALTHY_IP = IPv4Address("10.0.0.54")
WWW = DomainName("www.example.com")


class NxdomainServer:
    """A usable, non-transient answer for anything it is asked."""

    def handle_query(self, query, client_region=None):
        return DnsResponse.nxdomain(query)


class ServfailServer:
    def handle_query(self, query, client_region=None):
        return DnsResponse.servfail(query)


class StubPlane:
    """Deterministic stand-in for the traffic plane's defense verdicts."""

    def __init__(self, verdicts):
        self._verdicts = dict(verdicts)

    def admit_dns(self, address, query, region):
        return self._verdicts.get(address)


class LoseFirstAttempt:
    """Fault-plan stand-in: drops the first packet, delivers the rest."""

    def __init__(self):
        self.calls = 0

    def intercept_dns(self, address, query, region):
        self.calls += 1
        return FaultVerdict("loss" if self.calls == 1 else "deliver")


def throttle(*addresses):
    return StubPlane({ip: TrafficVerdict("throttled", None, 250)
                      for ip in addresses})


def shed(*addresses):
    return StubPlane({
        ip: TrafficVerdict(
            "shed", DnsResponse.refused(DnsQuery(WWW, RecordType.A)), 250
        )
        for ip in addresses
    })


def make_resolver(fabric, metrics=None):
    return RecursiveResolver(
        fabric,
        SimulationClock(),
        root_hints=[THROTTLED_IP],
        metrics=metrics,
    )


class TestResolverUnderThrottle:
    def test_throttled_server_is_failed_over_not_quarantined(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.register_dns(HEALTHY_IP, NxdomainServer())
        fabric.traffic_plane = throttle(THROTTLED_IP)
        metrics = MetricsRegistry()
        resolver = make_resolver(fabric, metrics)
        response = resolver._query_any([THROTTLED_IP, HEALTHY_IP], WWW, RecordType.A)
        assert response is not None and response.rcode is Rcode.NXDOMAIN
        # The throttled server is healthy: failover, no quarantine.
        assert THROTTLED_IP not in resolver.quarantine
        assert metrics.value("resolver.throttled") == 1
        assert metrics.value("resolver.failovers") == 1
        assert metrics.value("resolver.quarantined") == 0
        # Retry-after semantics: a same-day retry is futile by
        # construction, so none is spent on the throttled server.
        assert metrics.value("resolver.retries") == 0

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: a lost first attempt marks the server "
               "transient, so the throttled retry that proves it healthy "
               "still quarantines it; the fix moves the hostile study's "
               "pinned digests and waits for a benchmark re-pin",
    )
    def test_loss_then_throttle_does_not_quarantine(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.fault_plan = LoseFirstAttempt()
        fabric.traffic_plane = throttle(THROTTLED_IP)
        metrics = MetricsRegistry()
        resolver = make_resolver(fabric, metrics)
        assert resolver._query_server(THROTTLED_IP, WWW, RecordType.A) is None
        assert metrics.value("resolver.throttled") == 1
        # The throttle answered the retry: the server is healthy.
        assert THROTTLED_IP not in resolver.quarantine
        assert metrics.value("resolver.quarantined") == 0

    def test_servfail_server_still_quarantined(self, fabric):
        # The contrast case the fix must not regress: genuine failure
        # keeps its quarantine semantics even with a traffic plane up.
        fabric.register_dns(THROTTLED_IP, ServfailServer())
        fabric.register_dns(HEALTHY_IP, NxdomainServer())
        fabric.traffic_plane = StubPlane({})
        metrics = MetricsRegistry()
        resolver = make_resolver(fabric, metrics)
        response = resolver._query_any([THROTTLED_IP, HEALTHY_IP], WWW, RecordType.A)
        assert response is not None
        assert THROTTLED_IP in resolver.quarantine
        assert metrics.value("resolver.quarantined") == 1

    def test_everything_throttled_degrades_to_unknown(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.register_dns(HEALTHY_IP, NxdomainServer())
        fabric.traffic_plane = throttle(THROTTLED_IP, HEALTHY_IP)
        metrics = MetricsRegistry()
        resolver = make_resolver(fabric, metrics)
        before = resolver._transient_failures
        response = resolver._query_any([THROTTLED_IP, HEALTHY_IP], WWW, RecordType.A)
        # The answer is unknown — never a fabricated negative.
        assert response is None
        assert resolver._transient_failures == before + 2
        assert len(resolver.quarantine) == 0
        assert metrics.value("resolver.unanswered") == 2

    def test_shed_refused_is_not_treated_as_lame_delegation(self, fabric):
        # A genuine REFUSED is remembered as a last-resort answer in
        # _query_any; the defense stack's synthetic REFUSED must not be.
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.traffic_plane = shed(THROTTLED_IP)
        resolver = make_resolver(fabric, MetricsRegistry())
        response = resolver._query_any([THROTTLED_IP], WWW, RecordType.A)
        assert response is None
        assert THROTTLED_IP not in resolver.quarantine

    def test_shed_does_not_release_existing_quarantine(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.traffic_plane = shed(THROTTLED_IP)
        resolver = make_resolver(fabric, MetricsRegistry())
        resolver.quarantine.quarantine(THROTTLED_IP)
        resolver._query_any([THROTTLED_IP], WWW, RecordType.A)
        # Only a real answer proves health; a shed REFUSED proves nothing.
        assert THROTTLED_IP in resolver.quarantine


class TestClientUnderThrottle:
    def test_throttled_query_returns_none_and_flags(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.traffic_plane = throttle(THROTTLED_IP)
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        assert client.query(THROTTLED_IP, WWW, RecordType.A) is None
        assert client.last_throttled
        assert metrics.value("client.throttled") == 1
        # No retries burnt against a deterministic same-day verdict.
        assert metrics.value("client.retries") == 0

    def test_shed_refused_never_surfaces_as_a_response(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.traffic_plane = shed(THROTTLED_IP)
        client = DnsClient(fabric, metrics=MetricsRegistry())
        # The verdict carries a synthetic REFUSED; handing it to the
        # caller would read as a residual-record purge observation.
        assert client.query(THROTTLED_IP, WWW, RecordType.A) is None
        assert client.last_throttled

    def test_flag_resets_on_the_next_clean_query(self, fabric):
        fabric.register_dns(THROTTLED_IP, NxdomainServer())
        fabric.register_dns(HEALTHY_IP, NxdomainServer())
        fabric.traffic_plane = throttle(THROTTLED_IP)
        client = DnsClient(fabric, metrics=MetricsRegistry())
        client.query(THROTTLED_IP, WWW, RecordType.A)
        assert client.last_throttled
        assert client.query(HEALTHY_IP, WWW, RecordType.A) is not None
        assert not client.last_throttled


class _AnsweringClient:
    def __init__(self):
        self.last_throttled = False
        self.queries = 0

    def query(self, ip, hostname, rtype):
        self.queries += 1
        query = DnsQuery(DomainName(hostname), rtype)
        return DnsResponse(
            query=query,
            rcode=Rcode.NOERROR,
            answers=[a_record(hostname, "10.7.0.1")],
        )


class _ThrottledClient:
    def __init__(self):
        self.last_throttled = False
        self.queries = 0

    def query(self, ip, hostname, rtype):
        self.queries += 1
        self.last_throttled = True
        return None


class TestScannerVantageRotation:
    NS_IPS = [IPv4Address("10.3.0.1")]

    def make_scanner(self, clients, metrics=None):
        return CloudflareScanner(
            self.NS_IPS,
            clients,
            rng=SeededRng(5).fork("scanner-test"),
            metrics=metrics if metrics is not None else MetricsRegistry(),
        )

    def test_rotation_escapes_a_throttled_vantage(self):
        throttled, answering = _ThrottledClient(), _AnsweringClient()
        scanner = self.make_scanner([throttled, answering])
        retrieved = scanner.scan(["www.site0.com"])
        assert len(retrieved) == 1
        assert scanner.queries_throttled == 0
        assert throttled.queries == 1 and answering.queries == 1

    def test_all_vantages_throttled_counts_unmeasured_not_absent(self):
        clients = [_ThrottledClient(), _ThrottledClient(), _ThrottledClient()]
        metrics = MetricsRegistry()
        scanner = self.make_scanner(clients, metrics)
        retrieved = scanner.scan(["www.site0.com", "www.site1.com"])
        # Nothing retrieved, nothing *ignored* (= observed absent):
        # the sweep is unmeasured, which the study reports as partial.
        assert retrieved == []
        assert scanner.queries_throttled == 2
        assert scanner.queries_ignored == 0
        assert metrics.value("scan.cloudflare.throttled") == 2
        # Every vantage was tried before giving up on each hostname.
        assert all(client.queries == 2 for client in clients)

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: DnsClient.query treats only throttled/shed "
               "as a defense refusal, so an attack-outage is retried and "
               "reported as a plain timeout; the scanner then counts the "
               "hostname absent instead of rotating vantage points; the "
               "fix may move the hostile study's pinned digests and waits "
               "for a benchmark re-pin",
    )
    def test_attack_outage_rotates_vantage_not_absence(self, fabric):
        class AnsweringServer:
            def handle_query(self, query, client_region=None):
                return DnsResponse(
                    query=query,
                    rcode=Rcode.NOERROR,
                    answers=[a_record(query.qname, "10.7.0.1")],
                )

        class FloodedFrom:
            """The flood drowns only packets from one vantage region."""

            def __init__(self, flooded):
                self.flooded = flooded

            def admit_dns(self, address, query, client_region):
                if client_region == self.flooded:
                    return AttackVerdict("attack-outage", None, 250)
                return None

        fabric.register_dns(self.NS_IPS[0], AnsweringServer())
        fabric.attack_plane = FloodedFrom(region("oregon"))
        clients = [
            DnsClient(fabric, region=region(name), metrics=MetricsRegistry())
            for name in ("oregon", "london")
        ]
        scanner = self.make_scanner(clients)
        retrieved = scanner.scan(["www.site0.com"])
        # The flood is world state keyed per (day, event, region): the
        # hostname is unmeasured from oregon, never absent.
        assert scanner.queries_ignored == 0
        assert len(retrieved) == 1

    def test_unthrottled_scan_never_rotates(self):
        primary, secondary = _AnsweringClient(), _AnsweringClient()
        scanner = self.make_scanner([primary, secondary])
        scanner.scan(["www.site0.com", "www.site1.com"])
        # Rotation must not run in a traffic-free sweep: each hostname
        # is queried exactly once, at its index's own vantage point.
        assert primary.queries == 1 and secondary.queries == 1

    def test_stub_clients_without_throttle_tracking_are_supported(self):
        class Bare:
            def query(self, ip, hostname, rtype):
                return None

        scanner = self.make_scanner([Bare()])
        assert scanner.scan(["www.site0.com"]) == []
        assert scanner.queries_throttled == 0
        assert scanner.queries_ignored == 1
