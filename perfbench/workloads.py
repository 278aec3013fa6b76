"""The benchmark's workloads, as plain data.

Imported by both the parent (``run.py``, which must start without the
program on its path) and the campaign children (``layers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

__all__ = ["STUDY_DAYS", "SHARD_COUNT", "WORKLOADS", "Workload"]

#: Study days of the default ``StudyConfig`` every workload runs.
STUDY_DAYS = 42

#: Worker processes of ``study-sharded``: the two cores the benchmark
#: was sized on, so workers never outnumber cores there.
SHARD_COUNT = 2


@dataclass(frozen=True)
class Workload:
    """One campaign shape.  ``digest_group`` names the pinned artifact
    the campaign must reproduce; workloads that must agree share one."""

    name: str
    population: int
    entry: str  # "study", "sharded" or "checkpointed"
    digest_group: str
    fault_profile: Optional[str] = None
    traffic_profile: Optional[str] = None
    attack_profile: Optional[str] = None


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("study", 600, "study", "clean-p600"),
        Workload("study-sharded", 600, "sharded", "clean-p600"),
        Workload(
            "study-hostile",
            250,
            "checkpointed",
            "hostile-p250",
            fault_profile="attack-collateral",
            traffic_profile="surge",
            attack_profile="campaign",
        ),
    )
}
