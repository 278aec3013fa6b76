"""Observability for the query plane.

:mod:`repro.obs.metrics` — injectable monotonic counters and
simulated-time timers, threaded through the resolver, the DNS cache, and
the §V scanners;

:mod:`repro.obs.bench` — the ``repro bench`` harness running study day
0's collection (E1) and residual scan (E8) and emitting a
``BENCH_<label>.json`` perf-trajectory point.  Imported lazily by the
CLI — not re-exported here, so that importing :mod:`repro.dns` (which
uses the metrics) never drags in the world-building machinery.
"""

from .metrics import MetricsRegistry, SimTimer

__all__ = ["MetricsRegistry", "SimTimer"]
