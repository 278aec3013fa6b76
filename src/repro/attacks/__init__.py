"""The attack-event plane: DDoS events that drive the world.

ROADMAP item 5: a seeded schedule of volumetric/amplification
:class:`~repro.attacks.events.AttackEvent`\\ s whose effects flow through
world state transitions — emergency JOIN waves, post-attack LEAVE/SWITCH
waves calibrated to "No Time for Downtime" (PAPERS.md), co-location
splash per "The Web is Still Small" — plus load surges into the traffic
plane and transient outage windows on the victim's infrastructure.
"""

from .events import AttackEvent, AttackKind, TargetKind
from .plane import AttackPlane, AttackVerdict
from .profiles import (
    ATTACK_PROFILES,
    AttackProfile,
    attack_profile,
)

__all__ = [
    "AttackEvent",
    "AttackKind",
    "TargetKind",
    "AttackPlane",
    "AttackVerdict",
    "AttackProfile",
    "ATTACK_PROFILES",
    "attack_profile",
]
