"""Compare two BENCH payloads: gate on counters, report wall time.

Usage::

    python benchmarks/bench_compare.py BASELINE.json CANDIDATE.json

The E1 collection counters are pure functions of (population, seed,
warmup) — byte-identical across machines and Python versions — so any
difference means the query path's *work* changed, not just its speed,
and the script exits 1.  The E8 residual-scan summary is gated the same
way: the harvested nameserver count, the Cloudflare and Incapsula
retrieved/hidden counts, the canonical count and the batched-vs-naive
query-path comparison must match the baseline exactly.  The E8
``counters`` name the layer that did the scan's work, which has moved
between versions, so they are reported, not gated.  Wall times vary
with hardware; they are printed for the perf trajectory but never
gated.

Likewise a ``lint_wall`` section (``benchmarks/lint_wall.py
--merge-into``): the self-lint's cold/warm wall time and cache speedup.
Printed when present, never gated — the correctness properties (zero
warm re-parses, identical findings) are tier-1 tests.

And an ``attacks_overhead`` section: the E1 overhead curve of running
the collection under an attack campaign versus attacks-off at the same
(population, seed, warmup).  Printed when present, never gated — the
attacks-on run legitimately does different work (outage retries,
quarantine churn); the gated workload is always the attacks-off one.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List


def _load(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def compare(baseline: Dict[str, object], candidate: Dict[str, object]) -> int:
    """Print the comparison; return the process exit code."""
    for key in ("population", "seed", "warmup_days"):
        if baseline.get(key) != candidate.get(key):
            print(
                f"bench-compare: parameter mismatch on {key!r}: "
                f"baseline={baseline.get(key)} candidate={candidate.get(key)}"
                " — the runs are not comparable"
            )
            return 1

    base_e1 = baseline["e1_collection"]
    cand_e1 = candidate["e1_collection"]
    base_counters: Dict[str, int] = dict(base_e1["counters"])
    cand_counters: Dict[str, int] = dict(cand_e1["counters"])

    drift = []
    for name in sorted(set(base_counters) | set(cand_counters)):
        before = base_counters.get(name)
        after = cand_counters.get(name)
        if before != after:
            drift.append(f"  {name}: baseline={before} candidate={after}")

    base_wall = float(base_e1["wall_seconds"])
    cand_wall = float(cand_e1["wall_seconds"])
    ratio = cand_wall / base_wall if base_wall else float("inf")
    print(
        f"bench-compare: E1 wall {base_wall:.3f}s -> {cand_wall:.3f}s "
        f"({ratio:.2f}x, reported only)"
    )

    e8_drift = _e8_drift(baseline, candidate)
    _report_lint_wall("baseline", baseline)
    _report_lint_wall("candidate", candidate)
    _report_attacks_overhead("baseline", baseline)
    _report_attacks_overhead("candidate", candidate)

    if drift:
        print(
            f"bench-compare: {len(drift)} E1 counter(s) drifted from "
            "the baseline — the collection path is doing different work:"
        )
        print("\n".join(drift))
    if e8_drift:
        print(
            f"bench-compare: {len(e8_drift)} E8 summary field(s) drifted "
            "from the baseline — the residual scan measured something else:"
        )
        print("\n".join(e8_drift))
    if drift or e8_drift:
        return 1
    print(
        f"bench-compare: all {len(base_counters)} E1 counters and "
        f"{len(E8_GATED)} E8 summary fields byte-identical to the baseline"
    )
    return 0


#: The E8 summary fields gated byte-identical.
E8_GATED = (
    "harvested_nameservers",
    "cloudflare_retrieved",
    "cloudflare_hidden",
    "incapsula_canonicals",
    "incapsula_retrieved",
    "incapsula_hidden",
    "query_path_comparison",
)


def _e8_drift(
    baseline: Dict[str, object], candidate: Dict[str, object]
) -> List[str]:
    """Gated E8 fields that differ; reports the E8 wall and counters."""
    base_e8 = baseline["e8_residual_scan"]
    cand_e8 = candidate["e8_residual_scan"]
    print(
        f"bench-compare: E8 wall {float(base_e8['wall_seconds']):.3f}s -> "
        f"{float(cand_e8['wall_seconds']):.3f}s, counters "
        f"{sorted(cand_e8['counters'])} (reported only)"
    )
    return [
        f"  {name}: baseline={base_e8.get(name)!r} "
        f"candidate={cand_e8.get(name)!r}"
        for name in E8_GATED
        if base_e8.get(name) != cand_e8.get(name)
    ]


def _report_lint_wall(role: str, payload: Dict[str, object]) -> None:
    lint = payload.get("lint_wall")
    if not lint:
        return
    cold = lint["cold"]
    warm = lint["warm"]
    print(
        f"bench-compare: {role} lint wall ({lint['target']}, "
        f"{cold['files']} files, reported only): "
        f"cold {float(cold['wall_seconds']):.3f}s -> "
        f"warm {float(warm['wall_seconds']):.3f}s "
        f"({float(lint['speedup']):.1f}x)"
    )


def _report_attacks_overhead(role: str, payload: Dict[str, object]) -> None:
    overhead = payload.get("attacks_overhead")
    if not overhead:
        return
    print(
        f"bench-compare: {role} attacks overhead curve "
        f"(p{overhead['population']}, reported only):"
    )
    for point in overhead["points"]:
        print(
            f"  attacks={point['profile'] or 'off'}: "
            f"E1 {float(point['e1_wall_seconds']):.3f}s, "
            f"{point['queries_sent']} queries, "
            f"{point['unanswered']} unanswered"
        )


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    return compare(_load(argv[1]), _load(argv[2]))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
