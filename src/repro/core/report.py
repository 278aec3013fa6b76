"""Renderers that print each paper artifact from a study report.

Each function returns a plain-text table or series shaped like the
corresponding table/figure in the paper, with both raw simulated counts
and 1M-scaled equivalents so shapes can be compared directly.
"""

from __future__ import annotations

from typing import List, Sequence

from ..world.admin import BehaviorKind
from .pause import empirical_cdf
from .study import StudyReport

__all__ = [
    "render_table2_providers",
    "render_table3_status",
    "render_table4_behaviors",
    "render_fig2_adoption",
    "render_fig3_behaviors",
    "render_fig5_pause_cdf",
    "render_fig6_cloudflare",
    "render_fig7_vantage",
    "render_table5_ip_unchanged",
    "render_table6_residual",
    "render_fig9_exposure",
    "render_ground_truth_validation",
    "render_full_report",
]


def _table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    def fmt(cells: Sequence[object]) -> str:
        return "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(cells))
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)


def render_table2_providers() -> str:
    """Table II: the provider identification catalog."""
    from ..dps.catalog import PAPER_PROVIDERS

    rows = []
    for spec in PAPER_PROVIDERS:
        rows.append(
            (
                spec.name,
                " ".join(spec.cname_substrings) or "-",
                " ".join(spec.ns_substrings) or "-",
                " ".join(str(asn) for asn in spec.as_numbers),
                " / ".join(str(m) for m in spec.rerouting_methods),
            )
        )
    return "Table II — DPS provider information\n" + _table(
        ["provider", "CNAME substrings", "NS substrings", "AS numbers", "rerouting"],
        rows,
    )


def render_table3_status() -> str:
    """Table III: the status-determination rules, as implemented."""
    rows = [
        ("ON", "A record points to a DPS's IP (A-matched)"),
        ("OFF", "delegated to DPS (CNAME-matched, or NS-matched with "
                "Cloudflare) and A record points to a non-DPS IP"),
        ("NONE", "not delegated to DPS; A record points to a non-DPS IP"),
    ]
    return "Table III — DPS status\n" + _table(["status", "rule"], rows)


def render_table4_behaviors() -> str:
    """Table IV: the usage behaviours and their status transitions."""
    rows = [
        ("JOIN (J)", "NONE -> ON"),
        ("LEAVE (L)", "ON / OFF -> NONE"),
        ("PAUSE (P)", "ON -> OFF"),
        ("RESUME (R)", "OFF -> ON"),
        ("SWITCH (S)", "provider P1 -> P2"),
        ("NULL (N)", "no change"),
    ]
    return "Table IV — DPS usage behaviours\n" + _table(
        ["behaviour", "transition"], rows
    )


def render_fig2_adoption(report: StudyReport) -> str:
    """Fig. 2: average DPS adoption per provider."""
    scale = report.scale_factor
    rows = [
        (provider, f"{count:.1f}", f"{count * scale:,.0f}")
        for provider, count in sorted(
            report.adoption_by_provider.items(), key=lambda kv: -kv[1]
        )
    ]
    growth = (
        f"{report.adoption_growth:+.2%}"
        if report.adoption_growth is not None
        else "undefined (no adopters)"
    )
    header = (
        f"Fig. 2 — DPS adoption (avg/day). Overall rate "
        f"{report.overall_adoption_rate:.2%} (paper: 14.85%); top-sites "
        f"{report.top_sites_adoption_rate:.2%} (paper: 38.98%); growth "
        f"{growth} (paper: +1.17%).\n"
    )
    return header + _table(["provider", "sites (sim)", "sites (×scale)"], rows)


def render_fig3_behaviors(report: StudyReport) -> str:
    """Fig. 3: average daily usage behaviours."""
    paper = {
        BehaviorKind.JOIN: 195,
        BehaviorKind.LEAVE: 145,
        BehaviorKind.PAUSE: 87,
        BehaviorKind.RESUME: 62,
        BehaviorKind.SWITCH: 21,
    }
    scale = report.scale_factor
    rows = []
    for kind in BehaviorKind:
        measured = report.behavior_averages.get(kind, 0.0)
        rows.append(
            (
                kind.name,
                f"{measured:.2f}",
                f"{measured * scale:.0f}",
                paper.get(kind, "-"),
            )
        )
    return "Fig. 3 — usage behaviours per day\n" + _table(
        ["behaviour", "sim/day", "×scale", "paper/day"], rows
    )


def render_fig5_pause_cdf(report: StudyReport) -> str:
    """Fig. 5: CDF of pause periods."""
    sections = []
    series: List = [("overall", report.pause_durations_overall)]
    series.extend(sorted(report.pause_durations_by_provider.items()))
    for label, durations in series:
        if not durations:
            sections.append(f"{label}: no completed pauses observed")
            continue
        cdf = empirical_cdf(durations)
        points = "  ".join(f"({d}d, {frac:.0%})" for d, frac in cdf[:10])
        over5 = sum(1 for d in durations if d > 5) / len(durations)
        sections.append(
            f"{label}: n={len(durations)}, >5 days: {over5:.0%} "
            f"(paper ~30%)\n  CDF: {points}"
        )
    return "Fig. 5 — pause-period CDF\n" + "\n".join(sections)


def render_fig6_cloudflare(report: StudyReport) -> str:
    """Fig. 6: Cloudflare adoption breakdown by rerouting."""
    return (
        "Fig. 6 — Cloudflare rerouting breakdown\n"
        f"NS-based:    {report.cloudflare_ns_share:.2%} (paper: 89.95%)\n"
        f"CNAME-based: {report.cloudflare_cname_share:.2%} (paper: 10.05%)"
    )


def render_fig7_vantage(report: StudyReport) -> str:
    """Fig. 7: per-PoP scan load (vantage-point spreading)."""
    rows = [
        (pop, count)
        for pop, count in sorted(
            report.scan_pop_query_counts.items(),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if count > 0
    ]
    return (
        f"Fig. 7 — scan load across PoPs ({report.harvested_nameservers} "
        "nameservers harvested; paper: 391)\n"
        + _table(["PoP", "queries"], rows)
    )


def render_table5_ip_unchanged(report: StudyReport) -> str:
    """Table V: origin IP unchanged rate per provider."""
    if report.ip_change is None:
        return "Table V — not collected"
    paper = {
        "cloudflare": 59.5, "akamai": 58.0, "cloudfront": 35.0,
        "incapsula": 63.4, "fastly": 57.1, "edgecast": 66.7,
        "cdnetworks": 73.9, "dosarrest": 41.8, "limelight": 66.7,
        "stackpath": 72.5, "cdn77": 93.8,
    }
    rows = []
    for provider, row in sorted(
        report.ip_change.rows.items(), key=lambda kv: -kv[1].join_resume
    ):
        rows.append(
            (
                provider,
                row.join_resume,
                row.unchanged,
                f"{row.percentage:.1%}",
                f"{paper.get(provider, 0):.1f}%",
            )
        )
    total = report.ip_change.total
    rows.append(
        ("total", total.join_resume, total.unchanged, f"{total.percentage:.1%}", "58.6%")
    )
    return "Table V — origin IP unchanged rate\n" + _table(
        ["provider", "join&resume", "unchanged", "sim %", "paper %"], rows
    )


def render_table6_residual(report: StudyReport) -> str:
    """Table VI: residual resolution in the wild."""
    rows = []
    for weekly in report.cloudflare_weekly:
        rows.append(
            (
                f"cloudflare wk{weekly.week + 1}",
                weekly.hidden_count,
                weekly.verified_count,
                f"{weekly.verified_fraction:.1%}",
            )
        )
    cf = report.cloudflare_totals
    cf_pct = cf["verified"] / cf["hidden"] if cf["hidden"] else 0.0
    rows.append(("cloudflare TOTAL", cf["hidden"], cf["verified"], f"{cf_pct:.1%}"))
    inc = report.incapsula_totals
    inc_pct = inc["verified"] / inc["hidden"] if inc["hidden"] else 0.0
    rows.append(("incapsula TOTAL", inc["hidden"], inc["verified"], f"{inc_pct:.1%}"))
    return (
        "Table VI — residual resolution in the wild "
        "(paper: CF 3,504 hidden / 24.8% verified; Incapsula 42 / 69.0%)\n"
        + _table(["scan", "hidden", "verified", "verified %"], rows)
    )


def render_fig9_exposure(report: StudyReport) -> str:
    """Fig. 9: exposure observations over the weekly scans."""
    summary = report.cloudflare_exposure
    if summary is None:
        return "Fig. 9 — not collected"
    new_rows = [(f"week {w + 1}", n) for w, n in sorted(summary.new_per_week.items())]
    return (
        "Fig. 9 — exposure observations (Cloudflare)\n"
        f"distinct exposed origins: {summary.total_distinct}\n"
        f"always exposed (all {summary.weeks} scans): {summary.always_exposed} (paper: 139)\n"
        f"bounded exposures (appear & disappear in-study): "
        f"{summary.bounded_exposures} (paper: 388)\n"
        f"avg newly exposed per later week: {summary.average_new_per_week:.1f} "
        "(paper: ~114)\n" + _table(["scan", "newly exposed"], new_rows)
    )


def render_ground_truth_validation(report: StudyReport) -> str:
    """Measured vs planted behaviour rates — the check the paper's
    authors could never run, since the real Internet keeps no ground
    truth.  Shown per behaviour kind, averaged per day."""
    truth = report.ground_truth_daily_average()
    rows = []
    for kind in BehaviorKind:
        measured = report.behavior_averages.get(kind, 0.0)
        planted = truth.get(kind, 0.0)
        delta = measured - planted
        rows.append((kind.name, f"{measured:.2f}", f"{planted:.2f}", f"{delta:+.2f}"))
    return (
        "Validation — measured vs ground-truth behaviours (per day)\n"
        + _table(["behaviour", "measured", "planted", "delta"], rows)
    )


def render_full_report(report: StudyReport) -> str:
    """All artifacts, concatenated in paper order."""
    parts = [
        render_fig2_adoption(report),
        render_fig3_behaviors(report),
        render_fig5_pause_cdf(report),
        render_fig6_cloudflare(report),
        render_fig7_vantage(report),
        render_table5_ip_unchanged(report),
        render_table6_residual(report),
        render_fig9_exposure(report),
        render_ground_truth_validation(report),
    ]
    return "\n\n".join(parts)
