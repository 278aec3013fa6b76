"""Study-report export.

Serialises a :class:`~repro.core.study.StudyReport` to a JSON-compatible
dictionary (and back to disk), so campaigns can be archived, diffed
across library versions, and post-processed outside Python.  The export
keeps the per-artifact aggregates — everything EXPERIMENTS.md tabulates —
and omits the bulky raw snapshot series.

:func:`study_artifact` is the byte-compared spec every equivalence check
diffs (shard counts, resumes, the kill matrix, ``repro chaos``): the
export plus each day's collected records, one
:func:`collection_artifact` per snapshot.  :func:`diff_artifacts` names
where two such trees differ.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from ..io import atomic_write_json
from ..world.admin import BehaviorKind
from .collector import DailySnapshot
from .study import StudyReport

__all__ = [
    "report_to_dict",
    "save_report",
    "load_report_dict",
    "collection_artifact",
    "study_artifact",
    "diff_artifacts",
]

_SCHEMA_VERSION = 3

#: Divergences :func:`diff_artifacts` lists before truncation.
_MAX_DIVERGENCES = 25


def report_to_dict(report: StudyReport) -> Dict[str, Any]:
    """Flatten a study report into JSON-compatible primitives."""
    ip_change = None
    if report.ip_change is not None:
        ip_change = {
            "rows": {
                provider: {
                    "join_resume": row.join_resume,
                    "unchanged": row.unchanged,
                    "percentage": row.percentage,
                }
                for provider, row in report.ip_change.rows.items()
            },
            "total": {
                "join_resume": report.ip_change.total.join_resume,
                "unchanged": report.ip_change.total.unchanged,
                "percentage": report.ip_change.total.percentage,
            },
        }
    exposure = None
    if report.cloudflare_exposure is not None:
        summary = report.cloudflare_exposure
        exposure = {
            "weeks": summary.weeks,
            "total_distinct": summary.total_distinct,
            "always_exposed": summary.always_exposed,
            "bounded_exposures": summary.bounded_exposures,
            "new_per_week": {str(k): v for k, v in summary.new_per_week.items()},
        }
    return {
        "schema_version": _SCHEMA_VERSION,
        "population_size": report.population_size,
        "scale_factor": report.scale_factor,
        "config": {
            "warmup_days": report.config.warmup_days,
            "study_days": report.config.study_days,
            "scan_every_days": report.config.scan_every_days,
            "vantage_regions": list(report.config.vantage_regions),
            "verifier_strictness": report.config.verifier_strictness,
        },
        "fig2": {
            "adoption_by_provider": dict(report.adoption_by_provider),
            "overall_adoption_rate": report.overall_adoption_rate,
            "top_sites_adoption_rate": report.top_sites_adoption_rate,
            "adoption_growth": report.adoption_growth,
        },
        "fig3": {
            "behavior_averages": {
                kind.name: report.behavior_averages.get(kind, 0.0)
                for kind in BehaviorKind
            },
            "ground_truth_averages": {
                kind.name: value
                for kind, value in report.ground_truth_daily_average().items()
            },
        },
        "fig5": {
            "pause_durations_overall": list(report.pause_durations_overall),
            "pause_durations_by_provider": {
                provider: list(durations)
                for provider, durations in report.pause_durations_by_provider.items()
            },
        },
        "fig6": {
            "cloudflare_ns_share": report.cloudflare_ns_share,
            "cloudflare_cname_share": report.cloudflare_cname_share,
        },
        "fig7": {
            "harvested_nameservers": report.harvested_nameservers,
            "scan_pop_query_counts": dict(report.scan_pop_query_counts),
        },
        "table5": ip_change,
        "table6": {
            "cloudflare_weekly": [
                {
                    "week": weekly.week,
                    "retrieved": weekly.retrieved,
                    "dropped_ip_filter": weekly.dropped_ip_filter,
                    "dropped_a_filter": weekly.dropped_a_filter,
                    "hidden": weekly.hidden_count,
                    "verified": weekly.verified_count,
                }
                for weekly in report.cloudflare_weekly
            ],
            "incapsula_weekly": [
                {
                    "week": weekly.week,
                    "hidden": weekly.hidden_count,
                    "verified": weekly.verified_count,
                }
                for weekly in report.incapsula_weekly
            ],
            "cloudflare_totals": dict(report.cloudflare_totals),
            "incapsula_totals": dict(report.incapsula_totals),
        },
        "fig9": exposure,
        "degradation": {
            "unmeasured_daily_counts": list(report.unmeasured_daily_counts),
            "total_unmeasured": report.total_unmeasured,
            "partial_days": list(report.partial_days),
            "skipped_scan_weeks": list(report.skipped_scan_weeks),
            "partial_scan_weeks": {
                str(week): report.partial_scan_weeks[week]
                for week in sorted(report.partial_scan_weeks)
            },
            "quarantined_nameservers": list(report.quarantined_nameservers),
        },
        "attacks": (
            {
                "profile": report.attack_profile,
                "events": list(report.attack_events),
                "tallies": dict(report.attack_tallies),
            }
            if report.attack_profile is not None
            else None
        ),
        "multicdn_flagged": sorted(report.multicdn_flagged),
    }


def save_report(report: StudyReport, path: "str | Path") -> Path:
    """Write the report as pretty-printed JSON; returns the path."""
    return atomic_write_json(path, report_to_dict(report), trailing_newline=False)


def load_report_dict(path: "str | Path") -> Dict[str, Any]:
    """Read an exported report back as a dictionary."""
    return json.loads(Path(path).read_text())


def collection_artifact(snapshot: DailySnapshot) -> Dict[str, object]:
    """One day's collected records per site, in JSON-compatible form."""
    return {
        str(domain.www): {
            "a": sorted(str(ip) for ip in domain.a_records),
            "cnames": [str(c) for c in domain.cnames],
            "ns": sorted(str(t) for t in domain.ns_targets),
            "rcode": str(domain.rcode),
            "measured": domain.measured,
        }
        for domain in snapshot
    }


def study_artifact(report: StudyReport) -> Dict[str, object]:
    """The byte-compared artifact: E1 daily collections + E8 report."""
    return {
        "e1": [collection_artifact(snapshot) for snapshot in report.snapshots],
        "e8": report_to_dict(report),
    }


def diff_artifacts(
    baseline: Dict[str, object], other: Dict[str, object]
) -> List[str]:
    """Dotted paths where two artifact trees differ (sorted, truncated)."""
    paths: List[str] = []
    _diff_into(baseline, other, "", paths)
    paths.sort()
    if len(paths) > _MAX_DIVERGENCES:
        extra = len(paths) - _MAX_DIVERGENCES
        paths = paths[:_MAX_DIVERGENCES] + [f"... and {extra} more"]
    return paths


def _diff_into(a: object, b: object, prefix: str, out: List[str]) -> None:
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            path = f"{prefix}.{key}" if prefix else str(key)
            if key not in a:
                out.append(f"{path} (only in faulty run)")
            elif key not in b:
                out.append(f"{path} (only in baseline)")
            else:
                _diff_into(a[key], b[key], path, out)
        return
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for index, (left, right) in enumerate(zip(a, b)):
            _diff_into(left, right, f"{prefix}[{index}]", out)
        return
    if a != b:
        out.append(f"{prefix}: {a!r} != {b!r}")
