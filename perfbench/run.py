"""Benchmark of the whole six-week campaign, end to end and per layer.

    python3 perfbench/run.py --workload study --seed 2018 --seconds 40 --trace 0

Run from the root of a source checkout.  Each campaign runs in its own
child interpreter (``campaign.py``) through the study's public entry
points; this parent schedules the children for ``--seconds``, checks
every campaign's artifact digest, and prints the metrics as one JSON
object on the last stdout line.  The line before it stamps the result
with the machine, interpreter, seed, commit and sample counts.

``--trace 0`` reports the end-to-end metrics of untraced campaigns.
``--trace 1`` alternates untraced and traced campaigns, at least two
traced, and reports per-layer counts and times, the tracing overhead,
and whether the traced counters repeated exactly.  See ``README.md`` for
the workloads and for which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import STUDY_DAYS, WORKLOADS  # noqa: E402

#: Set-up-only trials per untraced run, on top of each campaign's own.
SETUP_TRIALS = 8
#: Campaigns per run, whatever ``--seconds`` says.
MIN_CAMPAIGNS = 2
#: Every child is killed once the run has lasted this long, inside the
#: 180 s any one benchmark run may take.
DEADLINE_S = 170

#: Useful-outcome ratio -> the boundary whose hits / calls it is.
HIT_RATIOS = {
    "dns.resolve.ok_ratio": "dns.resolve",
    "dns.cache_get.hit_ratio": "dns.cache_get",
    "net.deliver_dns.delivered_ratio": "net.deliver_dns",
    "faults.intercept_dns.drop_ratio": "faults.intercept_dns",
    "traffic.admit_dns.refused_ratio": "traffic.admit_dns",
    "attacks.admit_dns.refused_ratio": "attacks.admit_dns",
}


class ChildFailed(Exception):
    """A campaign child exited non-zero or printed no result."""


def _child(
    workload: str, seed: int, workdir: Path, mode: str, trials: int, timeout: float
) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    command = [
        sys.executable, str(HERE / "campaign.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(workdir), "--mode", mode, "--trials", str(trials),
    ]
    started = time.perf_counter()
    try:
        # A session of its own, so a hung campaign is killed together
        # with any shard workers it forked.
        with subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
        ) as child:
            try:
                stdout, stderr = child.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.communicate()
                raise ChildFailed(f"{mode} child overran the run's deadline")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(
            f"{mode} child exited {child.returncode}: {stderr.strip()[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["child_s"] = time.perf_counter() - started
    return result


def _manifest() -> dict:
    """``BENCHMARK.json``: the metric names and units this run reports."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _pins() -> Dict[str, Dict[str, str]]:
    return json.loads((HERE / "pins.json").read_text())["digests"]


def _commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _stamp(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": seed,
        "commit": _commit(),
    }


class Run:
    """Campaign results of one benchmark run, with their verdicts."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.population = WORKLOADS[workload].population
        group = WORKLOADS[workload].digest_group
        self.pinned = _pins().get(group, {}).get(str(seed))
        self.expected: Optional[str] = self.pinned
        self.attempted = 0
        self.failed = 0
        self.campaigns: List[dict] = []
        self.problems: List[str] = []
        self._children = 0
        self._deadline = time.perf_counter() + DEADLINE_S

    def campaign(self, mode: str) -> Optional[dict]:
        """Run one campaign child; keep it only if its output is right."""
        self.attempted += 1
        try:
            result = self.child(self.workload, mode)
        except ChildFailed as exc:
            return self._fail(str(exc))
        if result["days_recorded"] != STUDY_DAYS:
            return self._fail(f"{result['days_recorded']} study days recorded")
        if result["site_days"] != self.population * STUDY_DAYS:
            return self._fail(f"{result['site_days']} site-days recorded")
        if self.expected is None:
            # No pinned digest for this seed: later campaigns must agree
            # with the first, and `study-sharded` with a monolithic one.
            self.expected = result["digest"]
        if result["digest"] != self.expected:
            return self._fail(
                f"artifact digest {result['digest'][:16]} != expected "
                f"{self.expected[:16]}"
            )
        self.campaigns.append(result)
        return result

    def child(self, workload: str, mode: str, trials: int = 1) -> dict:
        self._children += 1
        return _child(
            workload, self.seed, self.workdir / f"child-{self._children}", mode,
            trials, timeout=max(1.0, self._deadline - time.perf_counter()),
        )

    def _fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)
        print(f"perfbench: campaign failed: {problem}", file=sys.stderr)
        return None


def _end_to_end(run: Run, setups: List[float]) -> Dict[str, float]:
    """Medians over the run's campaigns (and set-up trials, for set-up).

    The day percentiles are taken per campaign, over its 42 study days,
    before the median across campaigns.
    """
    campaigns = run.campaigns
    site_days = run.population * STUDY_DAYS
    day_quartiles = [
        statistics.quantiles(r["phases"]["day_s"], n=4) for r in campaigns
    ]
    return {
        "setup_s": statistics.median(
            setups + [r["phases"]["setup_s"] for r in campaigns]
        ),
        "study_s": statistics.median(r["phases"]["study_s"] for r in campaigns),
        "day_p50_s": statistics.median(q[1] for q in day_quartiles),
        "day_p75_s": statistics.median(q[2] for q in day_quartiles),
        "site_days_per_s": statistics.median(
            site_days / sum(r["phases"]["day_s"]) for r in campaigns
        ),
        "measured_share": 1.0 - campaigns[0]["unmeasured"] / site_days,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in campaigns),
    }


def _per_layer(
    run: Run, untraced: List[dict], traced: List[dict]
) -> Dict[str, float]:
    layers = [result["layers"] for result in traced]
    first = layers[0]
    unstable = sorted(
        f"{name}.{key}"
        for other in layers[1:]
        for name in first
        for key in ("calls", "hits")
        if other[name][key] != first[name][key]
    )
    if any(r["checkpoint_bytes"] != traced[0]["checkpoint_bytes"] for r in traced):
        unstable.append("checkpoint.bytes_written")
    for name in unstable:
        run.problems.append(f"counter {name} differs between traced repeats")
        print(f"perfbench: counter {name} differs between repeats", file=sys.stderr)

    def median_of(name: str, key: str) -> float:
        return statistics.median(snapshot[name][key] for snapshot in layers)

    metrics: Dict[str, float] = {}
    for name in first:
        metrics[f"{name}.calls"] = first[name]["calls"]
        if name.startswith("shard."):
            # Coordinator-side waits; the work itself runs in workers.
            metrics[f"{name}.wait_s"] = median_of(name, "incl_s")
        else:
            metrics[f"{name}.incl_s"] = median_of(name, "incl_s")
            metrics[f"{name}.self_s"] = median_of(name, "self_s")
    for ratio, name in HIT_RATIOS.items():
        calls = first[name]["calls"]
        metrics[ratio] = first[name]["hits"] / calls if calls else 0.0
    resolves = first["dns.resolve"]["calls"]
    metrics["dns.queries_per_resolve"] = (
        first["net.deliver_dns"]["calls"] / resolves if resolves else 0.0
    )
    metrics["checkpoint.bytes_written"] = traced[0]["checkpoint_bytes"]
    traced_s = statistics.median(r["phases"]["study_s"] for r in traced)
    untraced_s = statistics.median(r["phases"]["study_s"] for r in untraced)
    metrics["trace.study_s"] = traced_s
    metrics["trace.untraced_study_s"] = untraced_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["trace.unstable_counters"] = len(unstable)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    workdir = HERE / ".work" / str(os.getpid())
    run = Run(args.workload, args.seed, workdir)
    try:
        if run.pinned is None:
            print(f"perfbench: no pinned digest for seed {args.seed}; "
                  "checking campaigns against each other", file=sys.stderr)
            if args.workload == "study-sharded":
                # The sharded artifact must equal the monolithic one.
                run.expected = run.child("study", "run")["digest"]
        if args.trace:
            # Alternate untraced and traced campaigns, so the tracing
            # overhead compares campaigns from the same stretch of time.
            modes = itertools.cycle(("run", "traced"))
            done: Dict[str, List[dict]] = {"run": [], "traced": []}
            while len(done["traced"]) < MIN_CAMPAIGNS or _has_time(
                started, args.seconds, run.campaigns
            ):
                mode = next(modes)
                result = run.campaign(mode)
                if result is None:
                    break
                done[mode].append(result)
            if len(done["traced"]) < MIN_CAMPAIGNS:
                return _give_up(run)
            metrics = _per_layer(run, done["run"], done["traced"])
            section = "per_layer"
        else:
            setups = run.child(args.workload, "setup", SETUP_TRIALS)["setup_s"]
            while len(run.campaigns) < MIN_CAMPAIGNS or _has_time(
                started, args.seconds, run.campaigns
            ):
                if run.campaign("run") is None:
                    break
            if len(run.campaigns) < MIN_CAMPAIGNS:
                return _give_up(run)
            metrics = _end_to_end(run, setups)
            section = "end_to_end"
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    samples = {
        "campaigns": len(run.campaigns),
        "setups": (SETUP_TRIALS + len(run.campaigns)) if not args.trace else 0,
        "phases": [r["phases"] for r in run.campaigns],
        "digest": run.expected,
        "digest_pinned": run.pinned is not None,
    }
    print(json.dumps({"stamp": _stamp(args.seed), "samples": samples,
                      "problems": run.problems}))
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            spec["name"]: {"value": metrics[spec["name"]], "unit": spec["unit"]}
            for spec in _manifest()[section]
        },
    }))
    return 0


def _has_time(started: float, seconds: float, done: List[dict]) -> bool:
    """Whether one more campaign, as long as the mean so far, still fits."""
    mean = statistics.fmean(r["child_s"] for r in done)
    return time.perf_counter() - started + mean <= seconds


def _give_up(run: Run) -> int:
    print(f"perfbench: too few good campaigns ({len(run.campaigns)}); "
          f"problems: {run.problems}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
