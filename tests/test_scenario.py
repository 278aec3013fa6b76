"""The Scenario value: normalisation, identity, install order, plane state."""

import pytest

from repro.errors import ConfigurationError, ShardError
from repro.faults import PROFILES
from repro.scenario import (
    FIELDS,
    Scenario,
    drive_states,
    installed_planes,
    require_agreement,
)
from repro.world import SimulatedInternet, WorldConfig


class TestNormalisation:
    @pytest.mark.parametrize("field", FIELDS)
    def test_none_spellings_mean_off(self, field):
        assert getattr(Scenario(**{field: None}), field) is None
        assert getattr(Scenario(**{field: "none"}), field) is None

    @pytest.mark.parametrize(
        "field, name, noun",
        [
            ("faults", "lossy-default", "fault"),
            ("traffic", "surge", "traffic"),
            ("attacks", "campaign", "attack"),
        ],
    )
    def test_known_names_kept_unknown_refused(self, field, name, noun):
        assert getattr(Scenario(**{field: name}), field) == name
        with pytest.raises(ConfigurationError, match=f"unknown {noun} profile"):
            Scenario(**{field: "bogus"})

    def test_identity_and_keywords(self):
        scenario = Scenario("heavy-loss", "none", "campaign")
        assert scenario.identity == {
            "faults": "heavy-loss",
            "traffic": None,
            "attacks": "campaign",
        }
        assert scenario.keywords() == {
            "fault_profile": "heavy-loss",
            "traffic_profile": None,
            "attack_profile": "campaign",
        }
        assert scenario == Scenario(faults="heavy-loss", attacks="campaign")


class _RecordingWorld:
    def __init__(self):
        self.installed = []

    def install_faults(self, name):
        self.installed.append(("faults", name))

    def install_traffic(self, name):
        self.installed.append(("traffic", name))

    def install_attacks(self, name):
        self.installed.append(("attacks", name))


class TestInstall:
    def test_installs_faults_then_traffic_then_attacks(self):
        world = _RecordingWorld()
        Scenario("lossy-default", "surge", "campaign").install(world)
        assert world.installed == [
            ("faults", "lossy-default"),
            ("traffic", "surge"),
            ("attacks", "campaign"),
        ]

    def test_off_installs_nothing(self):
        world = _RecordingWorld()
        Scenario().install(world)
        assert world.installed == []


class TestShardability:
    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_refused_exactly_when_the_plan_is_slice_dependent(self, name):
        world = SimulatedInternet(WorldConfig(population_size=1, seed=0))
        slice_dependent = world.install_faults(name).slice_dependent
        scenario = Scenario(faults=name)
        scenario.require_shardable(1)
        if slice_dependent:
            with pytest.raises(ShardError, match="cannot be sharded"):
                scenario.require_shardable(2)
        else:
            scenario.require_shardable(2)

    def test_equivalence_profile_is_shardable(self):
        Scenario(faults="lossy-default").require_shardable(4)

    def test_rate_limits_are_not(self):
        with pytest.raises(ShardError):
            Scenario(faults="rate-limited").require_shardable(2)


class TestPlaneState:
    @pytest.fixture(scope="class")
    def worlds(self):
        def build(scenario):
            world = SimulatedInternet(WorldConfig(population_size=80, seed=3))
            world.engine.run_days(2)
            scenario.install(world)
            world.engine.run_days(3)
            return world

        hostile = Scenario("lossy-default", "surge", "campaign")
        return build(hostile), build(hostile), build(Scenario(traffic="surge"))

    def test_installed_planes_in_install_order(self, worlds):
        first, _, traffic_only = worlds
        assert list(installed_planes(first)) == list(FIELDS)
        assert all(plane is not None for plane in installed_planes(first).values())
        planes = installed_planes(traffic_only)
        assert planes["faults"] is None and planes["attacks"] is None
        assert planes["traffic"] is traffic_only.fabric.traffic_plane

    def test_drive_states_cover_the_replicated_planes(self, worlds):
        first, second, traffic_only = worlds
        assert set(drive_states(first)) == {"traffic", "attacks"}
        require_agreement(drive_states(first), drive_states(second), "workers")
        with pytest.raises(ShardError, match="plane.s state"):
            require_agreement(
                drive_states(first), drive_states(traffic_only), "workers"
            )

    def test_snapshot_from_another_scenario_is_refused(self):
        from repro.checkpoint import restore_runtime, serialize_runtime
        from repro.core.study import StudyConfig
        from repro.errors import CheckpointCorruptError

        config = StudyConfig(warmup_days=1, study_days=1)
        faulty = Scenario(faults="lossy-default").begin_study(60, 5, config)
        plain = Scenario().begin_study(60, 5, config)
        state = serialize_runtime(*faulty)
        assert state["planes"]["faults"] is not None
        with pytest.raises(CheckpointCorruptError, match="faults plane"):
            restore_runtime(*plain, state)
