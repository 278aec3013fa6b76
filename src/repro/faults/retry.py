"""Retry policy: bounded attempts, exponential backoff, timeout budget.

The paper's measurement ran on the live Internet, where queries time
out, nameservers throttle, and vantage points fall over.  Every network
client in the simulation (:class:`~repro.dns.client.DnsClient`, the
:class:`~repro.dns.resolver.RecursiveResolver` transport, and
:class:`~repro.web.http.HttpClient`) runs its deliveries through one
attempt loop, :meth:`RetryLoop.deliveries`, under the one policy
:data:`RETRY_POLICY`, so a fault-injected run recovers exactly the data
a fault-free run measures — up to the point where the fault rate
exceeds the retry budget and the measurement layer must degrade
explicitly instead.  Each transport keeps only its own handling of what
a delivery's outcome means.

Backoff jitter draws from a per-transport :class:`~repro.rng.SeededRng`
stream derived from a stable label, never ambient randomness, and all
elapsed time is *accounting only* — simulated milliseconds charged
against the per-destination budget.  Nothing here advances the world's
:class:`~repro.clock.SimulationClock`, so installing a fault plan can
never shift TTL expiry or purge horizons.

This module deliberately imports nothing from :mod:`repro.dns` or
:mod:`repro.net` at run time so the transport layers can import it
without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Tuple

from ..rng import SeededRng, stable_hash

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.fabric import Delivery
    from ..net.geo import Region
    from ..obs.metrics import MetricsRegistry

__all__ = ["RETRY_POLICY", "RetryLoop", "RetryPolicy", "default_retry_rng"]


def default_retry_rng(label: str) -> SeededRng:
    """A private, reproducible jitter stream for one transport.

    The stream depends only on the label, so every run draws the same
    jitter sequence.  Jitter is consumed *only* when a retry actually
    happens, so a fault-free run never touches it.
    """
    return SeededRng(stable_hash("retry-jitter", label))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and a timeout budget.

    Attributes
    ----------
    max_attempts:
        Total delivery attempts per destination (first try included).
    base_backoff_ms:
        Backoff before the second attempt; grows by
        ``backoff_multiplier`` for each later attempt.
    backoff_multiplier:
        Exponential growth factor for successive backoffs.
    jitter_fraction:
        Each backoff is stretched by up to this fraction, drawn from the
        transport's seeded jitter stream.
    budget_ms:
        Per-destination budget in simulated milliseconds.  Injected
        latency and backoff sleep both charge against it; once spent, no
        further attempts are made even if ``max_attempts`` remain.
    """

    max_attempts: int
    base_backoff_ms: int
    backoff_multiplier: float
    jitter_fraction: float
    budget_ms: int

    def backoff_ms(self, attempt: int, rng: SeededRng) -> int:
        """Backoff charged before attempt ``attempt + 1`` (1-indexed)."""
        base = self.base_backoff_ms * self.backoff_multiplier ** (attempt - 1)
        base += base * self.jitter_fraction * rng.random()
        return int(base)


#: The one policy every transport retries under.  The equivalence fault
#: profiles and ``FaultPlan.slice_dependent`` read its ``max_attempts``.
RETRY_POLICY = RetryPolicy(
    max_attempts=4,
    base_backoff_ms=200,
    backoff_multiplier=2.0,
    jitter_fraction=0.5,
    budget_ms=10_000,
)


class RetryLoop:  # repro: allow[REP063] -- its only mutable field, the jitter stream, is persisted as the owning transport's "retry_rng" state entry
    """One transport's attempt loop and its label-derived jitter stream.

    ``kind`` and the transport's region name the jitter stream
    (``resolver-oregon``, ``dns-client-global``, ...); ``prefix`` names
    the ``<prefix>.retries`` / ``<prefix>.budget_exhausted`` counters
    it keeps in ``metrics``.
    """

    __slots__ = ("_label", "_metrics", "_retries", "_exhausted", "_rng")

    def __init__(
        self,
        kind: str,
        region: Optional["Region"],
        metrics: "MetricsRegistry",
        prefix: str,
    ) -> None:
        self._label = f"{kind}-{region.name if region is not None else 'global'}"
        self._metrics = metrics
        self._retries = f"{prefix}.retries"
        self._exhausted = f"{prefix}.budget_exhausted"
        self._rng: Optional[SeededRng] = None

    def deliveries(
        self, deliver: Callable[..., "Delivery"], *args: object
    ) -> Iterator[Tuple[int, "Delivery"]]:
        """Yield ``(attempt, deliver(*args))`` until the caller stops.

        The caller handles each delivery's outcome and returns (or
        breaks) once it has what it needs; otherwise the next attempt
        follows.  Before each retry a jittered backoff is charged against
        the budget: once it is spent the loop counts
        ``<prefix>.budget_exhausted`` and ends, otherwise it counts
        ``<prefix>.retries`` and delivers again.  Each delivery's
        injected latency is charged too.
        """
        policy = RETRY_POLICY
        spent_ms = 0
        for attempt in range(1, policy.max_attempts + 1):
            if attempt > 1:
                spent_ms += policy.backoff_ms(attempt - 1, self._jitter())
                if spent_ms >= policy.budget_ms:
                    self._metrics.incr(self._exhausted)
                    return
                self._metrics.incr(self._retries)
            delivery = deliver(*args)
            if delivery.latency_ms > 0:
                spent_ms += delivery.latency_ms
            yield attempt, delivery

    def _jitter(self) -> SeededRng:
        if self._rng is None:
            self._rng = default_retry_rng(self._label)
        return self._rng

    def state(self) -> Optional[list]:
        """The jitter stream's position; None until a retry first drew."""
        return self._rng.getstate() if self._rng is not None else None

    def restore(self, state: Optional[list]) -> None:
        """Reinstate a position captured by :meth:`state`."""
        if state is None:
            self._rng = None
        else:
            self._jitter().setstate(state)
