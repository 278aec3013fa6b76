"""The world conditions a study runs under, as one value.

A :class:`Scenario` names up to three optional planes — a fault profile
(:mod:`repro.faults`), a background-traffic profile
(:mod:`repro.traffic`) and a DDoS campaign (:mod:`repro.attacks`) — and
is the only thing the checkpoint, shard and CLI layers pass around to
say which of them apply.  It owns the decisions those layers used to
repeat per plane:

* **names** normalise once, at construction: ``None`` and ``"none"``
  mean off, anything else must name a registered profile
  (:class:`~repro.errors.ConfigurationError` otherwise), so a bad name
  dies before any world is built or any checkpoint store is written;
* **installation** happens in one place, post-warm-up, in the fixed
  order faults → traffic → attacks (:meth:`Scenario.begin_study`);
* **identity** is one manifest entry (:attr:`Scenario.identity`);
* **plane state** serialises, restores and merges by one loop over the
  installed planes (:func:`installed_planes`, :func:`drive_states`,
  :func:`require_agreement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from .attacks.profiles import ATTACK_PROFILES
from .core.study import SixWeekStudy, StudyConfig, StudyRuntime
from .errors import ConfigurationError, ShardError
from .faults.profiles import PROFILES
from .traffic.profiles import TRAFFIC_PROFILES
from .world.config import WorldConfig
from .world.internet import SimulatedInternet

__all__ = [
    "FIELDS",
    "REGISTRIES",
    "Scenario",
    "drive_states",
    "installed_planes",
    "profile_keywords",
    "require_agreement",
]


class _Plane(NamedTuple):
    field: str
    #: The profile kind in messages; the public keyword is
    #: ``<noun>_profile`` and the installer ``install_<field>``.
    noun: str
    #: Named profiles the field may take.
    registry: Dict[str, object]
    #: Where the installed plane lives on the ``NetworkFabric``.
    fabric_attr: str
    #: Driven identically by every shard replica, so its ``drive_state``
    #: merges by agreement (the fault plan follows its own slice).
    replicated: bool


#: The planes, in install order.
_PLANES = (
    _Plane("faults", "fault", PROFILES, "fault_plan", False),
    _Plane("traffic", "traffic", TRAFFIC_PROFILES, "traffic_plane", True),
    _Plane("attacks", "attack", ATTACK_PROFILES, "attack_plane", True),
)

#: Scenario field names, in install order.
FIELDS: Tuple[str, ...] = tuple(plane.field for plane in _PLANES)

#: Each field's registry of named profiles.
REGISTRIES = {plane.field: plane.registry for plane in _PLANES}


@dataclass(frozen=True)
class Scenario:
    """Which fault, traffic and attack profiles a study runs under."""

    faults: Optional[str] = None
    traffic: Optional[str] = None
    attacks: Optional[str] = None

    def __post_init__(self) -> None:
        for plane in _PLANES:
            name = getattr(self, plane.field)
            if name == "none":
                object.__setattr__(self, plane.field, None)
            elif name is not None and name not in plane.registry:
                raise ConfigurationError(
                    f"unknown {plane.noun} profile {name!r}; known: "
                    f"{', '.join(sorted(plane.registry))} (or 'none')"
                )

    @property
    def identity(self) -> Dict[str, Optional[str]]:
        """The manifest's ``scenario`` entry."""
        return {field: getattr(self, field) for field in FIELDS}

    def keywords(self) -> Dict[str, Optional[str]]:
        """The scenario spelled as the public entry points' keywords."""
        return profile_keywords(self.identity)

    def install(self, world: SimulatedInternet) -> None:
        """Install every named plane on ``world``, faults first.

        Each plane is built at install time, so its day-windowed rules
        and schedules are relative to the clock's current day, and its
        RNG is forked from the world's root — installation never
        perturbs world dynamics.
        """
        for field in FIELDS:
            name = getattr(self, field)
            if name is not None:
                getattr(world, f"install_{field}")(name)

    def begin_study(
        self,
        population: int,
        seed: int,
        config: StudyConfig,
        shard_index: int = 0,
        shard_count: int = 1,
    ) -> "tuple[SixWeekStudy, StudyRuntime]":
        """Build the world, warm it up, then install the planes.

        The one way every route — monolithic, checkpointed, a shard
        worker, the shard coordinator's replay — starts a campaign:
        installing after warm-up puts every plane's schedule on the same
        clock day in every rebuild, which is what lets a resumed run or
        a replica reproduce the original's trajectory.
        """
        world = SimulatedInternet(
            WorldConfig(population_size=population, seed=seed)
        )
        study = SixWeekStudy(world, config)
        runtime = study.begin(shard_index, shard_count)
        self.install(world)
        return study, runtime

    def require_shardable(self, shard_count: int) -> None:
        """Refuse a sharded run whose fault plan depends on the slice.

        Probabilistic faults draw from one sequential stream and rate
        limits count every delivery of the day, so a worker measuring a
        slice would see other faults than the monolithic run and the
        merged artifact would differ.  The verdict is read off the
        profile's rules (:attr:`~repro.faults.plan.FaultPlan.slice_dependent`);
        their kinds and probabilities do not depend on the world they
        are scoped to, so a one-site world is enough to build them.
        """
        if shard_count <= 1 or self.faults is None:
            return
        probe = SimulatedInternet(WorldConfig(population_size=1, seed=0))
        if probe.install_faults(self.faults).slice_dependent:
            raise ShardError(
                f"fault profile {self.faults!r} cannot be sharded: its "
                "probabilistic or rate-limit faults depend on which "
                "deliveries a worker makes, so a sharded run would not "
                "reproduce the monolithic one; run it with one shard"
            )


def profile_keywords(
    identity: Dict[str, Optional[str]],
) -> Dict[str, Optional[str]]:
    """A scenario identity keyed by public keyword (``fault_profile``, ...)."""
    return {
        f"{plane.noun}_profile": identity.get(plane.field) for plane in _PLANES
    }


def installed_planes(
    world: SimulatedInternet,
) -> Dict[str, Optional[object]]:
    """Each field's installed plane on ``world`` (``None`` where off)."""
    return {
        plane.field: getattr(world.fabric, plane.fabric_attr)
        for plane in _PLANES
    }


def drive_states(world: SimulatedInternet) -> Dict[str, Optional[object]]:
    """The replicated planes' world-side state, for shard agreement."""
    replicated = {plane.field for plane in _PLANES if plane.replicated}
    return {
        field: plane.drive_state() if plane is not None else None
        for field, plane in installed_planes(world).items()
        if field in replicated
    }


def require_agreement(
    states: Dict[str, Optional[object]],
    others: Dict[str, Optional[object]],
    sides: str,
) -> None:
    """Refuse two replicas (named by ``sides``) whose planes diverged."""
    for plane in _PLANES:
        if plane.replicated and states[plane.field] != others[plane.field]:
            raise ShardError(
                f"{sides} disagree on the {plane.noun} plane's state; they "
                "cannot have driven the same world in lockstep"
            )
