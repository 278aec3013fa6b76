"""Tests for study-report JSON export."""

import json

import pytest

from repro.core.export import (
    diff_artifacts,
    load_report_dict,
    report_to_dict,
    save_report,
    study_artifact,
)
from repro.core.study import SixWeekStudy, StudyConfig
from repro.world import SimulatedInternet, WorldConfig


@pytest.fixture(scope="module")
def small_report():
    world = SimulatedInternet(WorldConfig(population_size=300, seed=83))
    config = StudyConfig(warmup_days=20, study_days=8)
    return SixWeekStudy(world, config).run()


class TestExport:
    def test_dict_is_json_serialisable(self, small_report):
        payload = report_to_dict(small_report)
        text = json.dumps(payload)  # must not raise
        assert json.loads(text) == payload

    def test_key_artifacts_present(self, small_report):
        payload = report_to_dict(small_report)
        for key in ("fig2", "fig3", "fig5", "fig6", "fig7", "table5",
                    "table6", "fig9"):
            assert key in payload, key
        assert payload["schema_version"] == 3
        assert payload["attacks"] is None
        assert payload["population_size"] == 300

    def test_fig3_includes_ground_truth(self, small_report):
        payload = report_to_dict(small_report)
        assert set(payload["fig3"]["behavior_averages"]) == {
            "JOIN", "LEAVE", "PAUSE", "RESUME", "SWITCH",
        }
        assert set(payload["fig3"]["ground_truth_averages"]) <= {
            "JOIN", "LEAVE", "PAUSE", "RESUME", "SWITCH",
        }

    def test_table6_totals_match_report(self, small_report):
        payload = report_to_dict(small_report)
        assert payload["table6"]["cloudflare_totals"] == small_report.cloudflare_totals

    def test_round_trip_through_disk(self, small_report, tmp_path):
        path = save_report(small_report, tmp_path / "report.json")
        loaded = load_report_dict(path)
        assert loaded == report_to_dict(small_report)

    def test_weekly_scan_rows(self, small_report):
        payload = report_to_dict(small_report)
        weekly = payload["table6"]["cloudflare_weekly"]
        assert len(weekly) == len(small_report.cloudflare_weekly)
        for row in weekly:
            assert row["retrieved"] >= row["hidden"]


class TestStudyArtifact:
    def test_one_collection_per_study_day(self, small_report):
        artifact = study_artifact(small_report)
        assert artifact["e8"] == report_to_dict(small_report)
        assert len(artifact["e1"]) == small_report.config.study_days
        site, records = next(iter(artifact["e1"][0].items()))
        assert site.startswith("www.")
        assert set(records) == {"a", "cnames", "ns", "rcode", "measured"}

    def test_legacy_import_paths_are_the_same_function(self):
        from repro.checkpoint import study_artifact as from_package
        from repro.checkpoint.killmatrix import study_artifact as from_module

        assert from_package is study_artifact
        assert from_module is study_artifact


class TestDiffArtifacts:
    def test_identical_trees_have_no_divergence(self, small_report):
        artifact = study_artifact(small_report)
        assert diff_artifacts(artifact, json.loads(json.dumps(artifact))) == []

    def test_paths_descend_into_day_lists(self):
        baseline = {"e1": [{"www.a.com": {"a": ["10.0.0.1"]}}], "e8": {"n": 1}}
        other = {"e1": [{"www.a.com": {"a": []}}], "e8": {"n": 2, "x": 0}}
        assert diff_artifacts(baseline, other) == [
            "e1[0].www.a.com.a: ['10.0.0.1'] != []",
            "e8.n: 1 != 2",
            "e8.x (only in faulty run)",
        ]

    def test_lists_of_different_length_compare_whole(self):
        assert diff_artifacts({"e1": [{}]}, {"e1": []}) == ["e1: [{}] != []"]

    def test_long_divergence_lists_are_truncated(self):
        baseline = {str(key): key for key in range(30)}
        other = {str(key): -key - 1 for key in range(30)}
        paths = diff_artifacts(baseline, other)
        assert len(paths) == 26
        assert paths[-1] == "... and 5 more"
