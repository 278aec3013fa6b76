"""Tests for the bench harness: E1/E8 workloads and the batched vs
naive query-path comparison (the PR's acceptance benchmark)."""

import json

import pytest

from repro.clock import SECONDS_PER_DAY
from repro.obs.bench import run_bench
from repro.world import SimulatedInternet, WorldConfig

_POPULATION = 80
_WARMUP_DAYS = 3


@pytest.fixture(scope="module")
def bench_result():
    """One small bench run shared by the whole module (~seconds)."""
    world = SimulatedInternet(
        WorldConfig(population_size=_POPULATION, seed=37)
    )
    return run_bench(world, warmup_days=_WARMUP_DAYS, label="unittest")


class TestRunBench:
    def test_payload_shape(self, bench_result):
        assert bench_result["label"] == "unittest"
        assert bench_result["population"] == _POPULATION
        assert bench_result["warmup_days"] == _WARMUP_DAYS
        for key in ("e1_collection", "e8_residual_scan", "wall_seconds_total"):
            assert key in bench_result

    def test_payload_json_serialisable(self, bench_result):
        assert json.loads(json.dumps(bench_result)) is not None

    def test_warmup_measured_in_simulated_seconds(self, bench_result):
        expected = _WARMUP_DAYS * SECONDS_PER_DAY
        assert bench_result["warmup_sim_seconds"] == expected

    def test_e1_counters(self, bench_result):
        e1 = bench_result["e1_collection"]
        assert e1["hostnames"] == _POPULATION
        assert e1["resolved"] > 0
        counters = e1["counters"]
        assert counters["resolver.queries_sent"] > 0
        assert counters["resolver.batches"] == 2  # one A pass, one NS pass
        assert counters["resolver.batch_names"] == 2 * _POPULATION
        assert "cache.hits" in counters

    def test_e8_counters(self, bench_result):
        e8 = bench_result["e8_residual_scan"]
        assert e8["harvested_nameservers"] > 0
        assert e8["cloudflare_retrieved"] > 0
        # The sweep's vantage clients: one direct query per hostname,
        # every one answered on a fault-free, unthrottled fabric.
        counters = e8["counters"]
        assert counters["client.queries"] == _POPULATION
        assert counters["client.answered"] == counters["client.queries"]

    def test_batched_beats_naive(self, bench_result):
        """The acceptance benchmark: the batched query path resolves the
        E8 name set with materially fewer queries per resolved name than
        naive per-name resolution."""
        comparison = bench_result["e8_residual_scan"]["query_path_comparison"]
        assert comparison, "expected a non-empty harvest at this population"
        batched, naive = comparison["batched"], comparison["naive"]
        assert batched["names"] == naive["names"]
        assert batched["resolved"] == naive["resolved"]  # identical outcomes
        assert batched["queries_sent"] < naive["queries_sent"]
        assert batched["queries_per_resolved"] < naive["queries_per_resolved"]


class TestPinnedPayload:
    """Exact E1 counters and E8 summary at p400 / seed 3 / warm-up 3.

    Both are deterministic functions of (population, seed, warm-up), so
    any drift means the measured day does different work or measures
    something else.  The values are the CI bench smoke's.
    """

    @pytest.fixture(scope="class")
    def pinned(self):
        world = SimulatedInternet(WorldConfig(population_size=400, seed=3))
        return run_bench(world, warmup_days=3)

    def test_e1_counters_exact(self, pinned):
        e1 = pinned["e1_collection"]
        assert (e1["hostnames"], e1["resolved"]) == (400, 400)
        assert e1["counters"] == {
            "bench.warmup.activations": 1,
            "bench.warmup.sim_seconds": 259200,
            "cache.hits": 1013,
            "cache.misses": 1844,
            "cache.purges": 1,
            "resolver.batch_names": 800,
            "resolver.batches": 2,
            "resolver.cname_links": 16,
            "resolver.ns_fallback_lookups": 45,
            "resolver.queries_sent": 879,
            "resolver.referrals": 418,
            "resolver.resolutions": 800,
            "resolver.zonecut_hits": 454,
        }

    def test_e8_summary_exact(self, pinned):
        e8 = pinned["e8_residual_scan"]
        assert {
            key: e8[key]
            for key in (
                "harvested_nameservers",
                "cloudflare_retrieved",
                "cloudflare_hidden",
                "incapsula_canonicals",
                "incapsula_retrieved",
                "incapsula_hidden",
            )
        } == {
            "harvested_nameservers": 79,
            "cloudflare_retrieved": 43,
            "cloudflare_hidden": 0,
            "incapsula_canonicals": 3,
            "incapsula_retrieved": 3,
            "incapsula_hidden": 0,
        }
        assert e8["query_path_comparison"] == {
            "batched": {
                "names": 82,
                "resolved": 82,
                "queries_sent": 86,
                "queries_per_resolved": 86 / 82,
            },
            "naive": {
                "names": 82,
                "resolved": 82,
                "queries_sent": 246,
                "queries_per_resolved": 3.0,
            },
        }
