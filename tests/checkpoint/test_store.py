"""Tests for the checkpoint store: manifest, journal, snapshots."""

import json
import shutil

import pytest

from repro.checkpoint.serde import SERIES, fold_snapshots
from repro.checkpoint.store import (
    SCHEMA_VERSION,
    CheckpointStore,
    canonical_json,
    content_hash,
)
from repro.errors import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointSchemaError,
)
from repro.scenario import Scenario

CONFIG = {"study_days": 3, "warmup_days": 8}


def make_store(directory, seed=11, population=150, config=None, profile=None):
    return CheckpointStore.create(
        directory,
        seed=seed,
        population=population,
        config=config if config is not None else dict(CONFIG),
        scenario=Scenario(faults=profile),
    )


class TestManifest:
    def test_round_trip(self, tmp_path):
        created = make_store(tmp_path / "ckpt", profile="lossy-default")
        opened = CheckpointStore.open(tmp_path / "ckpt")
        assert opened.manifest == created.manifest
        assert opened.manifest_hash == created.manifest_hash
        assert opened.manifest["schema_version"] == SCHEMA_VERSION
        assert opened.manifest["scenario"] == {
            "faults": "lossy-default",
            "traffic": None,
            "attacks": None,
        }

    def test_create_refuses_existing_directory(self, tmp_path):
        make_store(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="already holds a manifest"):
            make_store(tmp_path / "ckpt")

    def test_open_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointError, match="no checkpoint manifest"):
            CheckpointStore.open(tmp_path / "nowhere")

    def test_unsupported_schema_version(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        manifest = dict(store.manifest, schema_version=SCHEMA_VERSION + 1)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(canonical_json(manifest))
        with pytest.raises(CheckpointSchemaError, match="schema"):
            CheckpointStore.open(tmp_path / "ckpt")

    def test_garbled_manifest_is_corrupt(self, tmp_path):
        make_store(tmp_path / "ckpt")
        (tmp_path / "ckpt" / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            CheckpointStore.open(tmp_path / "ckpt")


class TestScenarioIdentity:
    def test_bad_profile_name_writes_no_store(self, tmp_path):
        from repro.checkpoint import run_checkpointed_study
        from repro.core.study import StudyConfig
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown fault profile"):
            run_checkpointed_study(
                tmp_path / "ckpt",
                population=60,
                seed=5,
                config=StudyConfig(warmup_days=1, study_days=1),
                fault_profile="bogus",
            )
        assert not (tmp_path / "ckpt").exists()

    def test_manifest_records_one_scenario_entry(self, tmp_path):
        store = CheckpointStore.create(
            tmp_path / "ckpt",
            seed=11,
            population=150,
            config=dict(CONFIG),
            scenario=Scenario("heavy-loss", "surge", "campaign"),
        )
        assert store.manifest["scenario"] == {
            "faults": "heavy-loss",
            "traffic": "surge",
            "attacks": "campaign",
        }
        for retired in ("fault_profile", "profile_hash", "traffic_profile",
                        "attack_profile"):
            assert retired not in store.manifest

    def test_schema_1_manifest_is_refused_not_misread(self, tmp_path):
        from repro.checkpoint import resume_study
        from repro.core.study import StudyConfig

        directory = tmp_path / "ckpt"
        directory.mkdir()
        # The layout schema 1 wrote: one field per plane, no "scenario".
        legacy = {
            "schema_version": 1,
            "seed": 11,
            "population": 150,
            "config": dict(CONFIG),
            "config_hash": content_hash(dict(CONFIG)),
            "fault_profile": None,
            "profile_hash": content_hash({"fault_profile": None}),
            "traffic_profile": None,
            "attack_profile": None,
            "shard": None,
        }
        (directory / "MANIFEST.json").write_text(canonical_json(legacy) + "\n")
        with pytest.raises(CheckpointSchemaError, match="schema 1"):
            CheckpointStore.open(directory)
        with pytest.raises(CheckpointSchemaError):
            resume_study(
                directory,
                population=150,
                seed=11,
                config=StudyConfig(warmup_days=8, study_days=3),
            )


    def test_schema_2_manifest_is_refused_not_misread(self, tmp_path):
        from repro.checkpoint import resume_study
        from repro.core.study import StudyConfig

        # Schema 2 kept the whole report in every snapshot; its journal
        # records carry no series lengths for the fold to check.
        store = make_store(tmp_path / "ckpt")
        legacy = dict(store.manifest, schema_version=2)
        (tmp_path / "ckpt" / "MANIFEST.json").write_text(
            canonical_json(legacy) + "\n"
        )
        with pytest.raises(CheckpointSchemaError, match="schema 2"):
            CheckpointStore.open(tmp_path / "ckpt")
        with pytest.raises(CheckpointSchemaError):
            resume_study(
                tmp_path / "ckpt",
                population=150,
                seed=11,
                config=StudyConfig(warmup_days=8, study_days=3),
            )


class TestVerifyInputs:
    @pytest.fixture
    def store(self, tmp_path):
        return make_store(tmp_path / "ckpt", profile="lossy-default")

    def test_matching_inputs_accepted(self, store):
        store.verify_inputs(
            seed=11,
            population=150,
            config=dict(CONFIG),
            scenario=Scenario(faults="lossy-default"),
        )

    @pytest.mark.parametrize(
        "override, needle",
        [
            (dict(seed=12), "seed"),
            (dict(population=151), "population"),
            (dict(config={"study_days": 4, "warmup_days": 8}), "config"),
            (dict(scenario=Scenario()), "fault_profile"),
        ],
    )
    def test_each_mismatch_refused(self, store, override, needle):
        inputs = dict(
            seed=11,
            population=150,
            config=dict(CONFIG),
            scenario=Scenario(faults="lossy-default"),
        )
        inputs.update(override)
        with pytest.raises(CheckpointMismatchError, match=needle):
            store.verify_inputs(**inputs)


class TestJournal:
    def append(self, store, barrier, state=None):
        return store.append_barrier(
            barrier=barrier,
            day=10 + barrier,
            clock_now=(10 + barrier) * 86_400,
            state=state if state is not None else {"barrier": barrier},
            lengths={"rows": barrier},
        )

    def test_append_and_replay(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        for barrier in range(3):
            self.append(store, barrier)
        records = store.barriers()
        assert [r["barrier"] for r in records] == [0, 1, 2]
        assert store.latest()["barrier"] == 2
        assert store.load_snapshot(records[1]) == {"barrier": 1}

    def test_out_of_order_append_refused(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        with pytest.raises(CheckpointError, match="out of order"):
            self.append(store, 2)

    def test_empty_journal(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        assert store.barriers() == []
        assert store.latest() is None

    def test_torn_tail_discarded_not_fatal(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        self.append(store, 1)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"barrier": 2, "tor')
        records = store.barriers()
        assert [r["barrier"] for r in records] == [0, 1]
        assert store.latest()["barrier"] == 1

    def test_appends_after_a_torn_tail_stay_readable(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        self.append(store, 1)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write('{"barrier": 2, "tor')
        reopened = CheckpointStore.open(tmp_path / "ckpt")
        self.append(reopened, 2)
        self.append(reopened, 3)
        assert [r["barrier"] for r in reopened.barriers()] == [0, 1, 2, 3]

    def test_valid_json_with_bad_hash_tail_discarded(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        record = dict(store.latest(), barrier=1, record_hash="0" * 32)
        with open(store.journal_path, "a", encoding="utf-8") as handle:
            handle.write(canonical_json(record) + "\n")
        assert [r["barrier"] for r in store.barriers()] == [0]

    def test_mid_journal_damage_is_corruption(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        for barrier in range(3):
            self.append(store, barrier)
        lines = store.journal_path.read_text().splitlines()
        lines[1] = lines[1][:-10] + "corrupted}"
        store.journal_path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="before the tail"):
            store.barriers()

    def test_foreign_journal_refused(self, tmp_path):
        ours = make_store(tmp_path / "ours")
        theirs = make_store(tmp_path / "theirs", seed=12)
        self.append(theirs, 0)
        shutil.copy(theirs.journal_path, ours.journal_path)
        with pytest.raises(CheckpointMismatchError, match="different manifest"):
            ours.barriers()

    def test_corrupted_snapshot_refused(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        record = self.append(store, 0, state={"payload": list(range(50))})
        path = tmp_path / "ckpt" / record["snapshot"]
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0xFF
        path.write_bytes(bytes(body))
        with pytest.raises(CheckpointCorruptError, match="refusing to resume"):
            store.load_snapshot(record)

    def test_append_keeps_its_place_without_rereading_the_journal(
        self, tmp_path, monkeypatch
    ):
        store = make_store(tmp_path / "ckpt")

        def reread():
            raise AssertionError("append_barrier re-read the journal")

        monkeypatch.setattr(store, "barriers", reread)
        for barrier in range(3):
            self.append(store, barrier)
        with pytest.raises(CheckpointError, match="journal expects 3"):
            self.append(store, 4)

    def test_open_resumes_appending_after_the_last_record(self, tmp_path):
        self.append(make_store(tmp_path / "ckpt"), 0)
        reopened = CheckpointStore.open(tmp_path / "ckpt")
        with pytest.raises(CheckpointError, match="out of order"):
            self.append(reopened, 0)
        self.append(reopened, 1)
        assert [r["barrier"] for r in reopened.barriers()] == [0, 1]

    def test_record_carries_cumulative_lengths(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        self.append(store, 0)
        self.append(store, 1)
        assert [r["lengths"] for r in store.barriers()] == [
            {"rows": 0},
            {"rows": 1},
        ]

    def test_missing_snapshot_refused(self, tmp_path):
        store = make_store(tmp_path / "ckpt")
        record = self.append(store, 0)
        (tmp_path / "ckpt" / record["snapshot"]).unlink()
        with pytest.raises(CheckpointCorruptError, match="missing snapshot"):
            store.load_snapshot(record)


class TestFold:
    def snapshot(self, rows, partial_scan_weeks=()):
        report = {series: [] for series in SERIES}
        report.update(rows, partial_scan_weeks=list(partial_scan_weeks))
        return {"day_index": len(rows.get("snapshots", [])), "report": report}

    def test_deltas_concatenate_and_newest_small_state_wins(self):
        first = self.snapshot({"partial_days": [3]}, [[0, 1]])
        second = self.snapshot({"partial_days": [4, 5]}, [[0, 2]])
        folded = fold_snapshots(
            [first, second],
            [
                dict(dict.fromkeys(SERIES, 0), partial_days=1),
                dict(dict.fromkeys(SERIES, 0), partial_days=3),
            ],
        )
        assert folded["report"]["partial_days"] == [3, 4, 5]
        assert folded["report"]["partial_scan_weeks"] == [[0, 2]]
        assert folded["day_index"] == second["day_index"]

    def test_delta_that_does_not_continue_is_corrupt(self):
        first = self.snapshot({"partial_days": [3]})
        second = self.snapshot({"partial_days": [4]})
        with pytest.raises(CheckpointCorruptError, match="barrier 1"):
            fold_snapshots(
                [first, second],
                [
                    dict(dict.fromkeys(SERIES, 0), partial_days=1),
                    dict(dict.fromkeys(SERIES, 0), partial_days=3),
                ],
            )


class TestDamagedDelta:
    def test_corrupt_mid_journal_delta_refuses_resume(self, tmp_path):
        from repro.checkpoint import resume_study, run_checkpointed_study
        from repro.core.study import StudyConfig

        inputs = dict(
            population=150,
            seed=11,
            config=StudyConfig(warmup_days=8, study_days=3),
        )
        run_checkpointed_study(tmp_path / "ckpt", **inputs)
        # Barrier 1 is neither the first nor the newest (3): only a
        # resume that folds every delta reads it.
        path = tmp_path / "ckpt" / "snapshot-0001.json"
        body = bytearray(path.read_bytes())
        body[len(body) // 2] ^= 0xFF
        path.write_bytes(bytes(body))
        with pytest.raises(CheckpointCorruptError, match="snapshot-0001"):
            resume_study(tmp_path / "ckpt", **inputs)


class TestCanonicalJson:
    def test_key_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})
        assert content_hash({"b": 1, "a": 2}) == content_hash({"a": 2, "b": 1})

    def test_round_trips_through_json(self):
        payload = {"nested": [1, 2, {"x": None}], "flag": True}
        assert json.loads(canonical_json(payload)) == payload
