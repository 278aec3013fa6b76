"""The kill matrix at test scale: every barrier, both modes, plus the
refusal checks, must pass with byte-identical artifacts."""

from repro.checkpoint import run_kill_matrix

from .conftest import POPULATION, SEED, STUDY_DAYS, small_config


class TestKillMatrix:
    def test_full_matrix_passes(self, tmp_path):
        payload = run_kill_matrix(
            tmp_path,
            population=POPULATION,
            seed=SEED,
            config=small_config(),
        )
        # after-commit crashes at 0..D, before-commit at 1..D.
        assert len(payload["cases"]) == 2 * STUDY_DAYS + 1
        assert all(case["crashed"] for case in payload["cases"])
        failed = [case for case in payload["cases"] if not case["passed"]]
        assert failed == [], failed
        refusal_verdicts = {
            check["check"]: check["passed"] for check in payload["refusals"]
        }
        assert refusal_verdicts == {
            "mismatched-seed": True,
            "mismatched-profile": True,
            "mismatched-traffic": True,
            "mismatched-attacks": True,
            "torn-journal-tail": True,
            "corrupt-mid-journal-delta": True,
            "corrupt-snapshot": True,
        }
        assert payload["passed"] is True
        assert payload["reference_hash"]

    def test_matrix_passes_under_an_attack_campaign(self, tmp_path):
        payload = run_kill_matrix(
            tmp_path,
            population=POPULATION,
            seed=SEED,
            config=small_config(),
            attack_profile="skirmish",
        )
        assert payload["attack_profile"] == "skirmish"
        assert all(case["passed"] for case in payload["cases"])
        assert all(check["passed"] for check in payload["refusals"])
        assert payload["passed"] is True
