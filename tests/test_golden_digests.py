"""Golden digests: the study artifact's bytes, pinned across changes.

Every other equivalence test compares two runs of the *same* build, so a
change that alters what the study measures, consistently on every
route, passes them all.  These digests were recorded before the
scenario plumbing was collapsed into :class:`repro.scenario.Scenario`
and must not move unless a change alters the study's behaviour on
purpose — in which case the same change updates them and says why.

Each digest is the SHA-256 of ``canonical_json(study_artifact(report))``
for p400, seed 2018, 8 warm-up days and 8 study days, and every route
— monolithic, checkpointed, sharded inline over 2 workers where the
scenario shards — must reproduce it.

The checkpoint stores those durable routes leave behind are pinned the
same way (:data:`STORE_GOLDEN`): manifests, journals and snapshots are
an on-disk format a later build must resume, so their bytes may not
drift either.  They were re-pinned when the store moved to schema 3,
whose snapshots hold each barrier's delta rows and whose journal
records carry cumulative series lengths; the artifact digests above
did not move.
"""

import hashlib
from pathlib import Path

import pytest

from repro.checkpoint import canonical_json, run_checkpointed_study, study_artifact
from repro.core.study import StudyConfig
from repro.scenario import Scenario
from repro.shard import run_sharded_study

POPULATION = 400
SEED = 2018
CONFIG = StudyConfig(warmup_days=8, study_days=8)

_CLEAN = "f8e0cdfb4cbcfbcff68a69cbdf8a4094d473a60c11f2b3257396e0ccea5c2b1e"

#: name -> (scenario, digest, shardable)
GOLDEN = {
    "off": (Scenario(), _CLEAN, True),
    # An equivalence profile: every fault stays inside the retry budget,
    # so the artifact is the fault-free one.
    "lossy-default": (Scenario(faults="lossy-default"), _CLEAN, True),
    "surge": (
        Scenario(traffic="surge"),
        "8b2e147af5627f2b3aa790343e5bbf75c63a377602ba1234225074c88077c66f",
        True,
    ),
    "campaign": (
        Scenario(attacks="campaign"),
        "5a7019dbcc8d3370f0a70d3a74ddfc234f9c52d210a596d5bf1a17e61b990f69",
        True,
    ),
    "hostile": (
        Scenario("attack-collateral", "surge", "campaign"),
        "db212922bc702eae09f2339818f4f023dec466afcf83b27395aacdc5103bb168",
        False,
    ),
}


def _monolithic(scenario, tmp_path):
    study, runtime = scenario.begin_study(POPULATION, SEED, CONFIG)
    while not runtime.finished:
        study.run_day(runtime)
    return study.finalise(runtime)


def _checkpointed(scenario, tmp_path):
    return run_checkpointed_study(
        tmp_path / "ckpt",
        population=POPULATION,
        seed=SEED,
        config=CONFIG,
        **scenario.keywords(),
    )


def _sharded(scenario, tmp_path):
    return run_sharded_study(
        population=POPULATION,
        seed=SEED,
        config=CONFIG,
        shard_count=2,
        mode="inline",
        **scenario.keywords(),
    )


ROUTES = {
    "monolithic": _monolithic,
    "checkpointed": _checkpointed,
    "sharded": _sharded,
}

CASES = [
    (name, route)
    for name, (_, _, shardable) in GOLDEN.items()
    for route in ROUTES
    if shardable or route != "sharded"
]


@pytest.mark.parametrize("name, route", CASES)
def test_artifact_matches_golden_digest(name, route, tmp_path):
    scenario, digest, _ = GOLDEN[name]
    report = ROUTES[route](scenario, tmp_path)
    body = canonical_json(study_artifact(report)).encode("utf-8")
    assert hashlib.sha256(body).hexdigest() == digest


#: name -> (route, scenario, digest) for the finished checkpoint store.
STORE_GOLDEN = {
    "checkpointed-off": (
        "checkpointed",
        Scenario(),
        "0758fc9d08b01aa196245054c507e3dc660b212f3ed926e6faf16fa10f39bc36",
    ),
    "checkpointed-hostile": (
        "checkpointed",
        GOLDEN["hostile"][0],
        "5848e1de3e99a317c0a021cef229d1067347997ac95d4342c774d794d5d5fb62",
    ),
    "sharded-off": (
        "sharded",
        Scenario(),
        "da3dd8ac6eae4630e48c9da87a6843efef0348562e92234cbc44c6a62aebfe58",
    ),
}


def store_digest(root: Path) -> str:
    """SHA-256 over every file's relative path, length and bytes."""
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        body = path.read_bytes()
        relative = path.relative_to(root).as_posix()
        digest.update(f"{relative}\0{len(body)}\0".encode("utf-8"))
        digest.update(body)
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(STORE_GOLDEN))
def test_checkpoint_store_matches_golden_digest(name, tmp_path):
    route, scenario, digest = STORE_GOLDEN[name]
    directory = tmp_path / "store"
    if route == "checkpointed":
        run_checkpointed_study(
            directory,
            population=POPULATION,
            seed=SEED,
            config=CONFIG,
            **scenario.keywords(),
        )
    else:
        run_sharded_study(
            population=POPULATION,
            seed=SEED,
            config=CONFIG,
            shard_count=2,
            mode="inline",
            checkpoint_dir=directory,
            **scenario.keywords(),
        )
    assert store_digest(directory) == digest
