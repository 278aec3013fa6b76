"""Tests for the attack-profile registry and schedule generation."""

import pytest

from repro.attacks import (
    ATTACK_PROFILES,
    attack_profile,
)
from repro.attacks.events import TargetKind
from repro.errors import ConfigurationError
from repro.scenario import Scenario
from repro.world import SimulatedInternet, WorldConfig

POPULATION = 200
SEED = 31
WARMUP = 6


def make_world():
    world = SimulatedInternet(
        WorldConfig(population_size=POPULATION, seed=SEED)
    )
    world.engine.run_days(WARMUP)
    return world


class TestRegistry:
    def test_registry_names_match_profiles(self):
        for name, profile in ATTACK_PROFILES.items():
            assert profile.name == name

    def test_expected_profiles_present(self):
        assert {"quiet", "skirmish", "campaign", "blitz"} <= set(
            ATTACK_PROFILES
        )

    def test_only_quiet_promises_equivalence(self):
        quiet = [
            name
            for name, profile in ATTACK_PROFILES.items()
            if profile.expect_equivalence
        ]
        assert quiet == ["quiet"]

    def test_unknown_profile_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="unknown attack profile"):
            attack_profile("tsunami")

    def test_normalize_maps_none_spellings(self):
        assert Scenario(attacks=None).attacks is None
        assert Scenario(attacks="none").attacks is None
        assert Scenario(attacks="campaign").attacks == "campaign"
        with pytest.raises(ConfigurationError, match="unknown attack profile"):
            Scenario(attacks="tsunami")


class TestScheduleGeneration:
    def test_quiet_builds_an_empty_schedule(self):
        plane = make_world().install_attacks("quiet")
        assert plane.events == []

    def test_campaign_covers_every_target_kind(self):
        plane = make_world().install_attacks("campaign")
        kinds = {event.target_kind for event in plane.events}
        assert kinds == {
            TargetKind.SITE_ORIGIN,
            TargetKind.PROVIDER_FLEET,
            TargetKind.HOSTING_BLOCK,
        }

    def test_campaign_schedules_an_overwhelming_strike(self):
        plane = make_world().install_attacks("campaign")
        assert any(event.overwhelms for event in plane.events)

    def test_strikes_start_after_install_in_ascending_order(self):
        world = make_world()
        install_day = world.clock.day
        plane = world.install_attacks("campaign")
        starts = [event.start_day for event in plane.events]
        assert all(day > install_day for day in starts)
        assert starts == sorted(starts)

    def test_two_replicas_build_byte_identical_schedules(self):
        # The shard-safety cornerstone: every worker regenerates the
        # schedule independently; the payloads must agree byte for byte.
        first = make_world().install_attacks("campaign")
        second = make_world().install_attacks("campaign")
        assert [e.as_dict() for e in first.events] == [
            e.as_dict() for e in second.events
        ]

    def test_different_seeds_build_different_schedules(self):
        world_a = make_world()
        world_b = SimulatedInternet(
            WorldConfig(population_size=POPULATION, seed=SEED + 1)
        )
        world_b.engine.run_days(WARMUP)
        schedule_a = [e.as_dict() for e in world_a.install_attacks("campaign").events]
        schedule_b = [e.as_dict() for e in world_b.install_attacks("campaign").events]
        assert schedule_a != schedule_b

    def test_site_strikes_aim_at_unprotected_sites(self):
        world = make_world()
        by_www = {str(site.www): site for site in world.population}
        plane = world.install_attacks("campaign")
        for event in plane.events:
            if event.target_kind is TargetKind.SITE_ORIGIN:
                victim = by_www[event.target]
                assert victim.provider is None

    def test_installation_does_not_perturb_world_dynamics(self):
        # Drive two same-seed worlds the same days, one with a plane
        # installed (but before any strike lands); while no event is
        # active the populations must stay identical.
        plain = make_world()
        attacked = make_world()
        attacked.install_attacks("quiet")
        plain.engine.run_days(4)
        attacked.engine.run_days(4)
        state = lambda world: [
            (str(site.www), site.alive,
             site.provider.name if site.provider else None)
            for site in world.population
        ]
        assert state(plain) == state(attacked)
