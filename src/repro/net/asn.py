"""Autonomous systems and the AS registry.

Each simulated organisation (a DPS provider, a hosting company, a cloud)
owns one or more autonomous systems; each AS originates a set of IPv4
prefixes.  The registry is the source from which the RouteViews-style
prefix database (:mod:`repro.net.routeviews`) is derived — exactly as the
paper derives provider IP ranges from AS numbers via the RouteView
archive (§IV-B-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from ..errors import ConfigurationError
from .ipaddr import IPv4Prefix

__all__ = ["AutonomousSystem", "AsRegistry"]


@dataclass
class AutonomousSystem:
    """One autonomous system: a number, an owning organisation, prefixes."""

    number: int
    organisation: str
    prefixes: List[IPv4Prefix] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.number <= 0:
            raise ConfigurationError(f"AS number must be positive: {self.number}")

    def announce(self, prefix: "IPv4Prefix | str") -> IPv4Prefix:
        """Originate an additional prefix from this AS."""
        parsed = IPv4Prefix(prefix)
        self.prefixes.append(parsed)
        return parsed


class AsRegistry:
    """Registry of every AS in the simulated Internet.

    Guarantees AS-number uniqueness and provides organisation-level
    lookups (`"which ASes belong to Cloudflare?"`), matching the paper's
    manual collection of provider AS numbers from as2.0/autnums.
    """

    def __init__(self) -> None:
        self._by_number: Dict[int, AutonomousSystem] = {}
        self._by_org: Dict[str, List[AutonomousSystem]] = {}

    def register(
        self,
        number: int,
        organisation: str,
        prefixes: Iterable["IPv4Prefix | str"] = (),
    ) -> AutonomousSystem:
        """Create and register a new AS."""
        if number in self._by_number:
            raise ConfigurationError(f"AS{number} already registered")
        asys = AutonomousSystem(number, organisation, [IPv4Prefix(p) for p in prefixes])
        self._by_number[number] = asys
        self._by_org.setdefault(organisation, []).append(asys)
        return asys

    def get(self, number: int) -> Optional[AutonomousSystem]:
        """Look up an AS by number, or None."""
        return self._by_number.get(number)

    def organisation_of(self, number: int) -> Optional[str]:
        """Name of the organisation owning AS ``number``, or None."""
        asys = self._by_number.get(number)
        return asys.organisation if asys else None

    def numbers_of(self, organisation: str) -> List[int]:
        """AS numbers registered to an organisation."""
        return [asys.number for asys in self._by_org.get(organisation, [])]

    def prefixes_of(self, organisation: str) -> List[IPv4Prefix]:
        """All prefixes originated by an organisation's ASes."""
        prefixes: List[IPv4Prefix] = []
        for asys in self._by_org.get(organisation, []):
            prefixes.extend(asys.prefixes)
        return prefixes

    def all_announcements(self) -> List[Tuple[IPv4Prefix, int]]:
        """Every (prefix, origin ASN) pair — the input to a BGP table."""
        announcements: List[Tuple[IPv4Prefix, int]] = []
        for asys in self._by_number.values():
            for prefix in asys.prefixes:
                announcements.append((prefix, asys.number))
        return announcements

    def __len__(self) -> int:
        return len(self._by_number)

    def __iter__(self):
        return iter(self._by_number.values())
