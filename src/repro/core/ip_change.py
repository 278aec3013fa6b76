"""Origin-IP unchanged-rate experiment (Table V, §IV-C-3).

Best practice says: after joining or resuming a DPS, assign the origin a
*new* address, or the previously-exposed one remains a valid attack
target.  The experiment checks compliance:

1. for each measured JOIN/RESUME, take the addresses the site resolved
   to *before* the action (IP1 — typically the origin, since status was
   NONE or OFF);
2. take the addresses after the action (IP2 — DPS edges);
3. HTML-verify each (IP2, IP1) pair; a match means the origin still
   answers on the old address — "IP unchanged".

Counts are per provider; the verification step under-counts (dynamic
meta, firewalled origins), so measured rates are lower bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence

from ..world.admin import BehaviorKind
from .behaviors import MeasuredBehavior
from .collector import DailySnapshot
from .htmlverify import HtmlVerifier

__all__ = ["IpUnchangedRow", "IpChangeExperiment"]


@dataclass
class IpUnchangedRow:
    """One provider's row of Table V."""

    provider: str
    join_resume: int = 0
    unchanged: int = 0

    @property
    def percentage(self) -> float:
        """Unchanged rate (0 when no events observed)."""
        if self.join_resume == 0:
            return 0.0
        return self.unchanged / self.join_resume


@dataclass
class IpChangeResult:
    """The full Table V: per-provider rows plus the total."""

    rows: Dict[str, IpUnchangedRow] = field(default_factory=dict)

    def row(self, provider: str) -> IpUnchangedRow:
        return self.rows.setdefault(provider, IpUnchangedRow(provider))

    @property
    def total(self) -> IpUnchangedRow:
        """The aggregate row."""
        total = IpUnchangedRow("total")
        for row in self.rows.values():
            total.join_resume += row.join_resume
            total.unchanged += row.unchanged
        return total


class IpChangeExperiment:
    """Runs the Table V measurement over behaviours and snapshots."""

    def __init__(self, verifier: HtmlVerifier) -> None:
        self._verifier = verifier

    def run(
        self,
        behaviors: Iterable[MeasuredBehavior],
        snapshots: Sequence[DailySnapshot],
        first_day: int = 0,
    ) -> IpChangeResult:
        """Evaluate every JOIN and RESUME (SWITCH excluded, §IV-C-3).

        ``snapshots[i]`` must be the collection for day ``first_day+i``.
        """
        by_day = {snapshot.day: snapshot for snapshot in snapshots}
        result = IpChangeResult()
        for behavior in behaviors:
            if behavior.kind not in (BehaviorKind.JOIN, BehaviorKind.RESUME):
                continue
            provider = behavior.to_provider
            if provider is None:
                continue
            before = by_day.get(behavior.day - 1)
            after = by_day.get(behavior.day)
            if before is None or after is None:
                continue
            prior = before.get(behavior.www)
            current = after.get(behavior.www)
            if prior is None or current is None or not prior.a_records:
                continue
            row = result.row(provider)
            row.join_resume += 1
            if self._ip_unchanged(behavior.www, current.a_records, prior.a_records):
                row.unchanged += 1
        return result

    def _ip_unchanged(
        self,
        www: str,
        edge_ips: Sequence,
        prior_ips: Sequence,
    ) -> bool:
        for edge_ip in edge_ips:
            for prior_ip in prior_ips:
                outcome = self._verifier.verify(www, edge_ip, prior_ip)
                if outcome.verified:
                    return True
        return False
