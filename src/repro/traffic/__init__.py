"""Background traffic plane: client load models and provider defenses.

The measurement study used to be the only DNS traffic in the simulated
world.  This package adds everything else: Zipf-distributed client
query load from per-region resolver populations
(:class:`~repro.traffic.plane.TrafficPlane`), and the provider-side
defense stack that load provokes — per-client token buckets, adaptive
limit tiers, per-nameserver circuit breakers and load shedding
(:mod:`repro.traffic.defense`).  Named recipes live in
:mod:`repro.traffic.profiles`; install one with
:meth:`repro.world.internet.SimulatedInternet.install_traffic`.
"""

from .defense import AdaptiveLimiter, CircuitBreaker, TokenBucket
from .plane import TrafficPlane, TrafficVerdict
from .profiles import (
    TRAFFIC_PROFILES,
    TrafficProfile,
    traffic_profile,
)

__all__ = [
    "AdaptiveLimiter",
    "CircuitBreaker",
    "TokenBucket",
    "TrafficPlane",
    "TrafficVerdict",
    "TrafficProfile",
    "TRAFFIC_PROFILES",
    "traffic_profile",
]
