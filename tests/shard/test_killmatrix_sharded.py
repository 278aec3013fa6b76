"""The kill matrix through the sharded plane, at test scale.

Same discipline as the monolithic matrix — crash at every barrier in
both modes, resume, demand byte-identity against the uninterrupted
sharded reference — plus the refusal checks pointed at one worker's
store: a single damaged shard must be enough to stop (or, for the torn
tail, be tolerated by) the whole campaign resume.
"""

from repro.checkpoint import run_kill_matrix
from repro.core.study import StudyConfig

from .conftest import POPULATION, SEED, WARMUP_DAYS


STUDY_DAYS = 3  # 7 crash cases; the equivalence pack covers long runs


class TestShardedKillMatrix:
    def test_full_matrix_passes_with_two_shards(self, tmp_path):
        payload = run_kill_matrix(
            tmp_path,
            population=POPULATION,
            seed=SEED,
            config=StudyConfig(
                warmup_days=WARMUP_DAYS, study_days=STUDY_DAYS
            ),
            shards=2,
        )
        assert payload["shards"] == 2
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
