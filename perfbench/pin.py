"""Regenerate the pinned artifact digests in ``pins.json``.

    PYTHONPATH=src:perfbench python3 perfbench/pin.py --group clean-p600 --seeds 0-63,2018

Runs one campaign per seed through the group's first workload and
records the SHA-256 of ``canonical_json(study_artifact(report))``.
Workloads sharing a group (``study`` and ``study-sharded``) must both
reproduce it.  Only re-pin when a change alters the artifact on
purpose, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import tempfile
from pathlib import Path

from layers import PhaseClock, artifact_digest, run_workload
from workloads import WORKLOADS

PINS = Path(__file__).resolve().parent / "pins.json"


def _seeds(spec: str):
    for part in spec.split(","):
        low, _, high = part.partition("-")
        yield from range(int(low), int(high or low) + 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--group", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 0-63,2018")
    args = parser.parse_args()
    workload = next(w for w in WORKLOADS.values() if w.digest_group == args.group)
    pinned = {}
    for seed in _seeds(args.seeds):
        scratch = PINS.parent / ".work"
        scratch.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch))
        try:
            clock = PhaseClock(workload.entry == "sharded")
            report = run_workload(workload, seed, workdir, clock)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        pinned[str(seed)] = artifact_digest(report)
        print(seed, pinned[str(seed)], flush=True)
    pins = json.loads(PINS.read_text())
    pins["digests"].setdefault(args.group, {}).update(pinned)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
