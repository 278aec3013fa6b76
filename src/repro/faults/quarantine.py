"""Nameserver quarantine with scheduled re-probe.

When the resolver exhausts its retry budget against a nameserver, the
server goes into quarantine: subsequent resolutions prefer the
remaining servers of the zone and only fall back to a quarantined one
when nothing else is left.  Each quarantined server carries a re-probe
time (simulation clock, not wall clock); once it passes, the server is
eligible again and a single success releases it.

The quarantine is measurement-layer state — it never touches the fault
plan or the fabric, it only reorders which servers the resolver tries
first.  That keeps fault-free runs byte-identical: with no faults, no
server is ever quarantined and the ordering is untouched.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from ..clock import SECONDS_PER_HOUR, SimulationClock
from ..errors import ConfigurationError
from ..net.ipaddr import IPv4Address

__all__ = ["NameserverQuarantine"]


class NameserverQuarantine:
    """Tracks unreachable nameservers and schedules their re-probe.

    Parameters
    ----------
    clock:
        The simulation clock used to stamp quarantine entries and decide
        when a re-probe is due.
    reprobe_after_s:
        Seconds a server stays quarantined before the next resolution
        is allowed to probe it again (default: six simulated hours).
    """

    def __init__(
        self,
        clock: SimulationClock,
        reprobe_after_s: int = 6 * SECONDS_PER_HOUR,
    ) -> None:
        if reprobe_after_s <= 0:
            raise ConfigurationError(
                f"reprobe_after_s must be positive, got {reprobe_after_s}"
            )
        self._clock = clock
        self.reprobe_after_s = int(reprobe_after_s)
        #: address -> (quarantined-at, re-probe-due) in sim seconds.
        self._entries: Dict[IPv4Address, Tuple[int, int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, address: IPv4Address) -> bool:
        return address in self._entries

    def quarantine(self, address: IPv4Address) -> None:
        """Put a server in quarantine (or push its re-probe time out)."""
        now = self._clock.now
        self._entries[address] = (
            self._entries.get(address, (now, 0))[0],
            now + self.reprobe_after_s,
        )

    def release(self, address: IPv4Address) -> None:
        """Remove a server from quarantine after a successful probe."""
        self._entries.pop(address, None)

    def reprobe_due(self, address: IPv4Address) -> bool:
        """Whether a quarantined server's re-probe time has passed."""
        entry = self._entries.get(address)
        return entry is not None and self._clock.now >= entry[1]

    def partition(
        self, servers: Sequence[IPv4Address]
    ) -> Tuple[List[IPv4Address], List[IPv4Address]]:
        """Split ``servers`` into (try-first, last-resort) in given order.

        Healthy servers and quarantined servers whose re-probe is due go
        in the first list; still-quarantined ones in the second.  The
        resolver walks the first list, then the second, so a fully
        quarantined zone is still probed rather than abandoned.
        """
        preferred: List[IPv4Address] = []
        deferred: List[IPv4Address] = []
        now = self._clock.now
        for server in servers:
            entry = self._entries.get(server)
            if entry is None or now >= entry[1]:
                preferred.append(server)
            else:
                deferred.append(server)
        return preferred, deferred

    def snapshot(self) -> List[Tuple[str, int, int]]:
        """Current entries as (address, quarantined-at, re-probe-due),
        sorted by address for deterministic reporting."""
        return sorted(
            (str(addr), at, due) for addr, (at, due) in self._entries.items()
        )

    def restore(self, entries: Iterable[Tuple[str, int, int]]) -> None:
        """Reinstate entries captured by :meth:`snapshot`.

        Round-trips exactly: ``restore(snapshot())`` leaves every future
        :meth:`partition` / :meth:`reprobe_due` decision identical, which
        is what lets a resumed study keep deprioritising the same
        servers until their original re-probe times.
        """
        restored: Dict[IPv4Address, Tuple[int, int]] = {}
        for address, quarantined_at, due in entries:
            if due < quarantined_at or quarantined_at < 0:
                raise ConfigurationError(
                    f"invalid quarantine entry for {address}: "
                    f"at={quarantined_at}, due={due}"
                )
            restored[IPv4Address(address)] = (int(quarantined_at), int(due))
        self._entries = restored

    @staticmethod
    def merge_snapshots(
        snapshots: Iterable[Iterable[Tuple[str, int, int]]],
    ) -> List[Tuple[str, int, int]]:
        """Union per-shard quarantine rosters into one canonical roster.

        Each study shard resolves only its own slice, so each resolver
        quarantines only the servers *it* exhausted a budget against;
        the campaign-level roster is their union.  When two shards
        quarantined the same address, the merged entry keeps the
        earliest quarantined-at and the latest re-probe-due — the same
        entry a single resolver would hold after both failures.  Sorted
        by address, like :meth:`snapshot`, so the merge is independent
        of shard order.
        """
        merged: Dict[str, Tuple[int, int]] = {}
        for entries in snapshots:
            for address, quarantined_at, due in entries:
                previous = merged.get(address)
                if previous is None:
                    merged[address] = (int(quarantined_at), int(due))
                else:
                    merged[address] = (
                        min(previous[0], int(quarantined_at)),
                        max(previous[1], int(due)),
                    )
        return sorted((addr, at, due) for addr, (at, due) in merged.items())
