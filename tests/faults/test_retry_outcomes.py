"""Outcome matrix: every retrying transport against every delivery outcome.

The recursive resolver's per-server transport, the stub
:class:`~repro.dns.client.DnsClient` and the
:class:`~repro.web.http.HttpClient` share one retry loop but keep their
own outcome handling.  Each case below makes the fabric hand one
transport the same outcome on every attempt, produced by the plane that
produces it in a study (a server answer, the fault plan, the traffic
plane's defenses, the attack plane's floods), and pins:

* how many deliveries the transport made;
* what it returned (rcode / HTTP status, or None);
* every counter it moved;
* whether the server ended up quarantined (resolver only);
* ``last_throttled`` (stub client only) or the transient-failure
  marker (resolver only);
* how many backoffs it drew from its label's jitter stream.

HTTP has no traffic plane on its path, so a throttling or shedding
defense leaves an HTTP fetch of the same address answered.
"""

import pytest

from repro.attacks.plane import AttackVerdict
from repro.clock import SimulationClock
from repro.dns.client import DnsClient
from repro.dns.message import DnsQuery, DnsResponse, Rcode
from repro.dns.name import DomainName
from repro.dns.records import RecordType, a_record
from repro.dns.resolver import RecursiveResolver
from repro.faults.plan import FaultVerdict
from repro.net.ipaddr import IPv4Address
from repro.obs.metrics import MetricsRegistry
from repro.rng import SeededRng, stable_hash
from repro.traffic import TrafficVerdict
from repro.web.http import HttpClient, HttpResponse, StatusCode

SERVER_IP = IPv4Address("10.0.0.53")
WWW = DomainName("www.example.com")

#: Latency of a slow lost packet: large enough that the budget runs out
#: after the third delivery whatever the jitter draws.
SLOW_MS = 4_000


class DnsServer:
    """Answers every query with one fixed rcode (NOERROR carries an A)."""

    def __init__(self, rcode):
        self.rcode = rcode

    def handle_query(self, query, client_region=None):
        if self.rcode is Rcode.SERVFAIL:
            return DnsResponse.servfail(query)
        if self.rcode is Rcode.REFUSED:
            return DnsResponse.refused(query)
        return DnsResponse(
            query=query,
            rcode=Rcode.NOERROR,
            answers=[a_record(query.qname, "10.7.0.1")],
        )


class HttpServer:
    def __init__(self, status):
        self.status = status

    def handle_request(self, request):
        return HttpResponse(self.status, body="hello")


class Always:
    """A plane stand-in that hands out one verdict for every delivery."""

    def __init__(self, verdict):
        self.verdict = verdict

    def intercept_dns(self, address, query, region):
        return self.verdict

    def intercept_http(self, address, host, region):
        return self.verdict

    def admit_dns(self, address, query, region):
        return self.verdict

    def admit_http(self, address, host, region):
        return self.verdict


#: outcome -> (DNS server rcode, HTTP server status, plane attribute,
#: verdict).  A None server leaves the address dark.
SCENARIOS = {
    "answered": (Rcode.NOERROR, StatusCode.OK, None, None),
    "servfail": (Rcode.SERVFAIL, StatusCode.BAD_GATEWAY, None, None),
    "refused": (Rcode.REFUSED, StatusCode.FORBIDDEN, None, None),
    "dark": (None, None, None, None),
    "loss": (Rcode.NOERROR, StatusCode.OK, "fault_plan", FaultVerdict("loss")),
    "slow-loss": (
        Rcode.NOERROR,
        StatusCode.OK,
        "fault_plan",
        FaultVerdict("loss", None, SLOW_MS),
    ),
    "throttled": (
        Rcode.NOERROR,
        StatusCode.OK,
        "traffic_plane",
        TrafficVerdict("throttled", None, 250),
    ),
    "shed": (
        Rcode.NOERROR,
        StatusCode.OK,
        "traffic_plane",
        TrafficVerdict(
            "shed", DnsResponse.refused(DnsQuery(WWW, RecordType.A)), 250
        ),
    ),
    "attack-outage": (
        Rcode.NOERROR,
        StatusCode.OK,
        "attack_plane",
        AttackVerdict("attack-outage", None, 250),
    ),
}


def build(fabric, outcome, plane_method):
    """Wire ``outcome`` into ``fabric``; returns the delivery log."""
    rcode, status, attribute, verdict = SCENARIOS[outcome]
    if rcode is not None:
        fabric.register_dns(SERVER_IP, DnsServer(rcode))
        fabric.register_http(SERVER_IP, HttpServer(status))
    if attribute is not None:
        setattr(fabric, attribute, Always(verdict))
    deliveries = []
    real = getattr(fabric, plane_method)

    def counted(*args, **kwargs):
        deliveries.append(args[0])
        return real(*args, **kwargs)

    setattr(fabric, plane_method, counted)
    return deliveries


# -- expectations -------------------------------------------------------------
#
# (deliveries, returned, counters, quarantined, flag, jitter draws).
# ``flag`` is the resolver's transient-failure bump or the client's
# ``last_throttled``; None for HTTP.  A transport draws one backoff
# before each retry, and one more when that backoff spends the budget.

_RESOLVER_TIMEOUT = {
    "resolver.queries_sent": 1,
    "resolver.retries": 3,
    "resolver.unanswered": 1,
    "resolver.quarantined": 1,
}
_RESOLVER_THROTTLED = {
    "resolver.queries_sent": 1,
    "resolver.throttled": 1,
    "resolver.unanswered": 1,
}

RESOLVER = {
    "answered": (1, "NOERROR", {"resolver.queries_sent": 1}, False, 0, 0),
    "servfail": (4, None, _RESOLVER_TIMEOUT, True, 1, 3),
    "refused": (1, "REFUSED", {"resolver.queries_sent": 1}, False, 0, 0),
    "dark": (1, None, {}, False, 0, 0),
    "loss": (4, None, _RESOLVER_TIMEOUT, True, 1, 3),
    "slow-loss": (
        3,
        None,
        {
            "resolver.queries_sent": 1,
            "resolver.retries": 2,
            "resolver.budget_exhausted": 1,
            "resolver.unanswered": 1,
            "resolver.quarantined": 1,
        },
        True,
        1,
        3,
    ),
    "throttled": (1, None, _RESOLVER_THROTTLED, False, 1, 0),
    "shed": (1, None, _RESOLVER_THROTTLED, False, 1, 0),
    "attack-outage": (
        1,
        None,
        {
            "resolver.queries_sent": 1,
            "resolver.attack_outage": 1,
            "resolver.unanswered": 1,
        },
        False,
        1,
        0,
    ),
}

_CLIENT_ANSWERED = {"client.queries": 1, "client.answered": 1}
_CLIENT_LOST = {"client.queries": 1, "client.retries": 3, "client.unanswered": 1}
_CLIENT_THROTTLED = {"client.queries": 1, "client.throttled": 1}

CLIENT = {
    "answered": (1, "NOERROR", _CLIENT_ANSWERED, False, False, 0),
    "servfail": (
        4,
        "SERVFAIL",
        {"client.queries": 1, "client.retries": 3, "client.servfail": 1},
        False,
        False,
        3,
    ),
    "refused": (1, "REFUSED", _CLIENT_ANSWERED, False, False, 0),
    "dark": (1, None, {"client.queries": 1, "client.unanswered": 1}, False, False, 0),
    "loss": (4, None, _CLIENT_LOST, False, False, 3),
    "slow-loss": (
        3,
        None,
        {
            "client.queries": 1,
            "client.retries": 2,
            "client.budget_exhausted": 1,
            "client.unanswered": 1,
        },
        False,
        False,
        3,
    ),
    "throttled": (1, None, _CLIENT_THROTTLED, False, True, 0),
    "shed": (1, None, _CLIENT_THROTTLED, False, True, 0),
    # Retried like a loss and reported as a plain timeout: the known
    # defect pinned by test_attack_outage_rotates_vantage_not_absence
    # (tests/traffic/test_throttle_tolerance.py).
    "attack-outage": (4, None, _CLIENT_LOST, False, False, 3),
}

_HTTP_ANSWERED = {"http.requests": 1, "http.answered": 1}
_HTTP_LOST = {"http.requests": 1, "http.retries": 3, "http.unanswered": 1}

HTTP = {
    "answered": (1, 200, _HTTP_ANSWERED, False, None, 0),
    "servfail": (1, 502, _HTTP_ANSWERED, False, None, 0),
    "refused": (1, 403, _HTTP_ANSWERED, False, None, 0),
    "dark": (1, None, {"http.requests": 1, "http.unanswered": 1}, False, None, 0),
    "loss": (4, None, _HTTP_LOST, False, None, 3),
    "slow-loss": (
        3,
        None,
        {
            "http.requests": 1,
            "http.retries": 2,
            "http.budget_exhausted": 1,
            "http.unanswered": 1,
        },
        False,
        None,
        3,
    ),
    "throttled": (1, 200, _HTTP_ANSWERED, False, None, 0),
    "shed": (1, 200, _HTTP_ANSWERED, False, None, 0),
    "attack-outage": (4, None, _HTTP_LOST, False, None, 3),
}


def jitter_draws(state, label):
    """How far a transport's jitter stream has advanced from ``label``'s
    seed (0 when it was never materialised)."""
    if state is None:
        return 0
    reference = SeededRng(stable_hash("retry-jitter", label))
    for draws in range(1, 8):
        reference.random()
        if reference.getstate() == state:
            return draws
    raise AssertionError(f"jitter stream is not {label!r}'s")


def observe_resolver(fabric, outcome):
    deliveries = build(fabric, outcome, "deliver_dns")
    metrics = MetricsRegistry()
    resolver = RecursiveResolver(
        fabric, SimulationClock(), root_hints=[SERVER_IP], metrics=metrics
    )
    before = resolver._transient_failures
    response = resolver._query_server(SERVER_IP, WWW, RecordType.A)
    return (
        len(deliveries),
        response.rcode.name if response is not None else None,
        metrics.snapshot(),
        SERVER_IP in resolver.quarantine,
        resolver._transient_failures - before,
        jitter_draws(resolver.state_dict()["retry_rng"], "resolver-global"),
    )


def observe_client(fabric, outcome):
    deliveries = build(fabric, outcome, "deliver_dns")
    metrics = MetricsRegistry()
    client = DnsClient(fabric, metrics=metrics)
    response = client.query(SERVER_IP, WWW, RecordType.A)
    return (
        len(deliveries),
        response.rcode.name if response is not None else None,
        metrics.snapshot(),
        False,
        client.last_throttled,
        jitter_draws(client.state_dict()["retry_rng"], "dns-client-global"),
    )


def observe_http(fabric, outcome):
    deliveries = build(fabric, outcome, "deliver_http")
    metrics = MetricsRegistry()
    client = HttpClient(fabric, metrics=metrics)
    response = client.get(SERVER_IP, WWW)
    return (
        len(deliveries),
        response.status if response is not None else None,
        metrics.snapshot(),
        False,
        None,
        jitter_draws(client.state_dict()["retry_rng"], "http-client-global"),
    )


TRANSPORTS = {
    "resolver": (observe_resolver, RESOLVER),
    "client": (observe_client, CLIENT),
    "http": (observe_http, HTTP),
}


@pytest.mark.parametrize("outcome", sorted(SCENARIOS))
@pytest.mark.parametrize("transport", sorted(TRANSPORTS))
def test_outcome_matrix(fabric, transport, outcome):
    observe, expected = TRANSPORTS[transport]
    assert observe(fabric, outcome) == expected[outcome]
