"""Retry/backoff behaviour of the DNS/HTTP clients and the resolver.

Also the PR's bugfix proof: unanswered (None) outcomes are recorded in
the MetricsRegistry, and retries are counted separately from first
attempts (``queries_sent`` keeps its fault-free meaning).
"""

from repro.clock import SimulationClock
from repro.dns.client import DnsClient
from repro.dns.message import DnsResponse, Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType
from repro.dns.resolver import RecursiveResolver
from repro.faults import RETRY_POLICY, FaultKind, FaultPlan, FaultRule
from repro.net.fabric import NetworkFabric
from repro.net.ipaddr import IPv4Address
from repro.obs.metrics import MetricsRegistry
from repro.rng import SeededRng
from repro.web.http import HttpClient, HttpResponse, StatusCode

SERVER_IP = IPv4Address("10.0.0.53")
DARK_IP = IPv4Address("10.0.0.99")
WWW = DomainName("www.example.com")


class NxdomainServer:
    """Answers every query NXDOMAIN (a usable, non-transient answer)."""

    def __init__(self):
        self.queries = 0

    def handle_query(self, query, client_region=None):
        self.queries += 1
        return DnsResponse.nxdomain(query)


class ServfailServer:
    """A genuinely broken server: SERVFAIL on every query."""

    def handle_query(self, query, client_region=None):
        return DnsResponse.servfail(query)


class OkHandler:
    def __init__(self):
        self.requests = 0

    def handle_request(self, request):
        self.requests += 1
        return HttpResponse(StatusCode.OK, body="hello")


def install(fabric, rules, cap=None):
    plan = FaultPlan(
        rng=SeededRng(3).fork("test"),
        clock=SimulationClock(),
        rules=rules,
        max_consecutive_failures=cap,
    )
    fabric.fault_plan = plan
    return plan


class TestDnsClientRetry:
    def test_retries_through_injected_servfail(self, fabric):
        fabric.register_dns(SERVER_IP, NxdomainServer())
        install(fabric, [FaultRule(FaultKind.SERVFAIL, probability=1.0)], cap=2)
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        response = client.query(SERVER_IP, WWW, RecordType.A)
        assert response is not None and response.rcode is Rcode.NXDOMAIN
        # One logical query, two retries: counted separately.
        assert client.queries_sent == 1
        assert metrics.value("client.queries") == 1
        assert metrics.value("client.retries") == 2
        assert metrics.value("client.answered") == 1

    def test_unanswered_recorded_in_metrics(self, fabric):
        fabric.register_dns(SERVER_IP, NxdomainServer())
        install(fabric, [FaultRule(FaultKind.OUTAGE)])
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        assert client.query(SERVER_IP, WWW) is None
        assert metrics.value("client.unanswered") == 1

    def test_dark_address_not_retried(self, fabric):
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        assert client.query(DARK_IP, WWW) is None
        # Deterministic condition: one attempt, no retries.
        assert metrics.value("client.retries") == 0
        assert metrics.value("client.unanswered") == 1

    def test_persistent_servfail_returned_after_budget(self, fabric):
        fabric.register_dns(SERVER_IP, ServfailServer())
        metrics = MetricsRegistry()
        client = DnsClient(fabric, metrics=metrics)
        response = client.query(SERVER_IP, WWW)
        assert response is not None and response.rcode is Rcode.SERVFAIL
        assert metrics.value("client.servfail") == 1
        assert metrics.value("client.retries") == RETRY_POLICY.max_attempts - 1


class TestHttpClientRetry:
    def test_retries_through_loss(self, fabric):
        handler = OkHandler()
        fabric.register_http(SERVER_IP, handler)
        install(fabric, [FaultRule(FaultKind.LOSS, probability=1.0, plane="http")], cap=2)
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        response = client.get(SERVER_IP, WWW)
        assert response is not None and response.ok
        assert handler.requests == 1
        assert client.requests_sent == 1
        assert metrics.value("http.retries") == 2
        assert metrics.value("http.answered") == 1

    def test_unanswered_recorded(self, fabric):
        fabric.register_http(SERVER_IP, OkHandler())
        install(fabric, [FaultRule(FaultKind.OUTAGE, plane="http")])
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        assert client.get(SERVER_IP, WWW) is None
        assert metrics.value("http.unanswered") == 1

    def test_dark_address_not_retried(self, fabric):
        metrics = MetricsRegistry()
        client = HttpClient(fabric, metrics=metrics)
        assert client.get(DARK_IP, WWW) is None
        assert metrics.value("http.retries") == 0


class TestResolverFailover:
    def make_resolver(self, fabric, metrics=None):
        return RecursiveResolver(
            fabric,
            SimulationClock(),
            root_hints=[SERVER_IP],
            metrics=metrics,
        )

    def test_failover_past_unresponsive_server(self, fabric):
        good_ip = IPv4Address("10.0.0.54")
        fabric.register_dns(SERVER_IP, ServfailServer())
        fabric.register_dns(good_ip, NxdomainServer())
        metrics = MetricsRegistry()
        resolver = self.make_resolver(fabric, metrics)
        response = resolver._query_any([SERVER_IP, good_ip], WWW, RecordType.A)
        assert response is not None and response.rcode is Rcode.NXDOMAIN
        # The broken server exhausted its budget, was quarantined, and
        # the resolver failed over to the healthy one.
        assert SERVER_IP in resolver.quarantine
        assert metrics.value("resolver.failovers") == 1
        assert metrics.value("resolver.unanswered") == 1
        assert metrics.value("resolver.quarantined") == 1
        assert metrics.value("resolver.retries") == RETRY_POLICY.max_attempts - 1
        # queries_sent counts logical queries only (one per server).
        assert resolver.queries_sent == 2

    def test_success_releases_quarantine(self, fabric):
        server = NxdomainServer()
        fabric.register_dns(SERVER_IP, server)
        resolver = self.make_resolver(fabric)
        resolver.quarantine.quarantine(SERVER_IP)
        # Re-probe not due yet, but it is the only server of the zone,
        # so it is still tried as a last resort — and released.
        response = resolver._query_any([SERVER_IP], WWW, RecordType.A)
        assert response is not None
        assert SERVER_IP not in resolver.quarantine

    def test_gave_up_marks_resolution(self, world_factory):
        world = world_factory(population_size=60, seed=9)
        world.install_faults(
            FaultPlan(
                rng=world.rng.fork("gave-up-test"),
                clock=world.clock,
                rules=[FaultRule(FaultKind.OUTAGE, plane="dns")],
            )
        )
        metrics = MetricsRegistry()
        resolver = world.make_resolver(metrics=metrics)
        result = resolver.resolve(world.population[0].www, RecordType.A)
        assert result.rcode is Rcode.SERVFAIL
        assert result.gave_up
        assert metrics.value("resolver.gave_up") == 1

    def test_fault_free_resolution_never_gives_up(self, shared_world):
        resolver = shared_world.make_resolver()
        result = resolver.resolve(shared_world.population[0].www, RecordType.A)
        assert not result.gave_up
        assert resolver.metrics.value("resolver.retries") == 0
        assert len(resolver.quarantine) == 0
