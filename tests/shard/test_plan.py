"""The shard plan: exact coverage, balance, loud refusals.

The partition is :func:`~repro.core.study.shard_bounds` and the weekly
scan day :func:`~repro.core.study.scan_due`, pure arithmetic every
party recomputes; the topology refusals are
:func:`~repro.shard.run_sharded_study`'s, raised before any world is
built, store written or worker started.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.study import StudyConfig, scan_due, shard_bounds
from repro.errors import ConfigurationError
from repro.shard import run_sharded_study


def _bounds(population, shard_count):
    return [
        shard_bounds(population, index, shard_count)
        for index in range(shard_count)
    ]


def _sizes(population, shard_count):
    return [end - start for start, end in _bounds(population, shard_count)]


def _refused(population, shard_count):
    with pytest.raises(ConfigurationError) as excinfo:
        run_sharded_study(
            population=population, seed=1, shard_count=shard_count
        )
    return str(excinfo.value)


class TestShardPlan:
    def test_bounds_cover_population_exactly_once(self):
        covered = [
            index
            for start, end in _bounds(10, 3)
            for index in range(start, end)
        ]
        assert covered == list(range(10))

    def test_sizes_are_balanced_and_in_shard_order(self):
        assert _sizes(10, 3) == [4, 3, 3]
        assert sum(_sizes(10, 3)) == 10

    def test_single_shard_is_the_whole_population(self):
        assert shard_bounds(7, 0, 1) == (0, 7)

    @pytest.mark.parametrize(
        "population, shard_count, message",
        [
            (0, 1, "population must be >= 1, got 0"),
            (10, 0, "shard_count must be >= 1, got 0"),
            (10, -1, "shard_count must be >= 1, got -1"),
            (2, 3, "cannot split 2 site(s) over 3 shard(s)"),
        ],
        ids=["0-1", "10-0", "10--1", "2-3"],
    )
    def test_bad_topologies_are_refused(self, population, shard_count, message):
        assert message in _refused(population, shard_count)

    def test_out_of_range_shard_index_is_refused(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 2, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, -1, 2)

    @given(
        population=st.integers(min_value=1, max_value=500),
        shard_count=st.integers(min_value=1, max_value=32),
    )
    def test_property_partition_is_exact_contiguous_and_balanced(
        self, population, shard_count
    ):
        if shard_count > population:
            assert "every shard needs at least one site" in _refused(
                population, shard_count
            )
            return
        bounds = _bounds(population, shard_count)
        # Contiguous: each shard starts where the previous one ended.
        assert bounds[0][0] == 0
        assert bounds[-1][1] == population
        for (_, previous_end), (start, _) in zip(bounds, bounds[1:]):
            assert start == previous_end
        # Balanced: sizes differ by at most one, larger shards first.
        sizes = _sizes(population, shard_count)
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    @given(
        population=st.integers(min_value=1, max_value=300),
        shard_count=st.integers(min_value=1, max_value=16),
        shard_index=st.integers(min_value=0, max_value=15),
    )
    def test_property_bounds_need_no_coordination(
        self, population, shard_count, shard_index
    ):
        """Any party recomputes the same bounds from the size rule alone:
        ``population // shard_count`` each, one extra for the first
        ``population % shard_count`` shards."""
        if shard_index >= shard_count or shard_count > population:
            return
        base, extra = divmod(population, shard_count)
        sizes = [base + (index < extra) for index in range(shard_count)]
        start = sum(sizes[:shard_index])
        assert shard_bounds(population, shard_index, shard_count) == (
            start,
            start + sizes[shard_index],
        )


class TestScanDay:
    def test_weekly_from_day_zero(self):
        config = StudyConfig(study_days=15)
        due = [day for day in range(config.study_days) if scan_due(config, day)]
        assert due == [0, 7, 14]

    def test_custom_cadence(self):
        config = StudyConfig(scan_every_days=3)
        assert [scan_due(config, day) for day in range(4)] == [
            True, False, False, True
        ]

    def test_no_scans_when_residual_scans_are_off(self):
        config = StudyConfig(run_residual_scans=False)
        assert not any(scan_due(config, day) for day in range(14))
