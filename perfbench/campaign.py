"""One benchmark child process: set-up trials or one whole campaign.

Run by ``run.py`` with the program's ``src`` on ``PYTHONPATH``; prints
one JSON object on its last stdout line.  Each campaign gets a fresh
interpreter, so no campaign inherits another's warm caches or heap, and
the process's peak resident set is the campaign's own.

    python3 perfbench/campaign.py --workload study --seed 2018 \\
        --workdir perfbench/.work/x --mode run
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from tracer import Tracer, merge_snapshots

from layers import PhaseClock, artifact_digest, install_layers, run_workload
from workloads import WORKLOADS


def _setup_trials(workload, seed: int, workdir: Path, trials: int) -> dict:
    """Time world construction up to study day 0, ``trials`` times."""
    samples = []
    for trial in range(trials):
        clock = PhaseClock(workload.entry == "sharded", stop_at_day0=True)
        run_workload(workload, seed, workdir / f"setup-{trial}", clock)
        samples.append(clock.day_marks[0] - clock.start)
    return {"setup_s": samples}


def _campaign(workload, seed: int, workdir: Path, traced: bool) -> dict:
    tracer = None
    if traced:
        tracer = Tracer()
        install_layers(tracer, workdir)
    clock = PhaseClock(workload.entry == "sharded")
    try:
        report = run_workload(workload, seed, workdir, clock)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    result = {
        "phases": clock.phases(),
        "digest": artifact_digest(report),
        "days_recorded": len(report.snapshots),
        "site_days": sum(len(snapshot) for snapshot in report.snapshots),
        "unmeasured": report.total_unmeasured,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if tracer is not None:
        workers = [
            json.loads(path.read_text())
            for path in sorted(workdir.glob("worker-*.json"))
        ]
        result["layers"] = merge_snapshots([tracer.snapshot()] + workers)
        result["checkpoint_bytes"] = sum(
            path.stat().st_size
            for path in (workdir / "checkpoint").rglob("*")
            if path.is_file()
        )
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--trials", type=int, default=1)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    args.workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "setup":
        result = _setup_trials(workload, args.seed, args.workdir, args.trials)
    else:
        result = _campaign(workload, args.seed, args.workdir, args.mode == "traced")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
