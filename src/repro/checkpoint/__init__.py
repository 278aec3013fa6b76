"""Crash-safe checkpoint/resume plane for the six-week study.

See :mod:`repro.checkpoint.store` for the on-disk format (manifest,
content-hashed snapshots, write-ahead journal), :mod:`.replica` for the
durable replica every checkpointed and sharded route runs on,
:mod:`.runner` for the in-process barrier loop and deterministic
resume, and :mod:`.killmatrix` for the crash-at-every-barrier
equivalence harness.
"""

from .killmatrix import run_kill_matrix, study_artifact
from .replica import Replica
from .runner import resume_study, run_checkpointed_study
from .serde import config_to_dict, restore_runtime, serialize_runtime
from .store import SCHEMA_VERSION, CheckpointStore, canonical_json, content_hash

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointStore",
    "Replica",
    "canonical_json",
    "content_hash",
    "config_to_dict",
    "serialize_runtime",
    "restore_runtime",
    "run_checkpointed_study",
    "resume_study",
    "run_kill_matrix",
    "study_artifact",
]
