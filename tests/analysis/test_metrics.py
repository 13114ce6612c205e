"""Tests for derived metrics."""

import pytest
from hypothesis import example, given, strategies as st

from repro.analysis.metrics import (
    fairness_index,
    game_score,
    latency_balance,
    variability_balance,
)
from repro.core.events import IoRequest, IoType
from repro.core.statistics import StatisticsGatherer


def _stats(read_latencies=(), write_latencies=()):
    stats = StatisticsGatherer()
    for latency in read_latencies:
        io = IoRequest(IoType.READ, 0)
        io.issue_time, io.dispatch_time, io.complete_time = 0, 0, latency
        stats.record_io(io)
    for latency in write_latencies:
        io = IoRequest(IoType.WRITE, 0)
        io.issue_time, io.dispatch_time, io.complete_time = 0, 0, latency
        stats.record_io(io)
    return stats


class TestFairnessIndex:
    def test_equal_shares_are_perfectly_fair(self):
        assert fairness_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_monopoly_is_one_over_n(self):
        assert fairness_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_and_zero_inputs_vacuously_fair(self):
        assert fairness_index([]) == 1.0
        assert fairness_index([0, 0]) == 1.0

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=20))
    @example(values=[4.675899348175555e-162, 4.675899348175555e-162])  # squares underflow
    def test_property_bounded(self, values):
        index = fairness_index(values)
        assert 0.0 <= index <= 1.0 + 1e-9


class TestBalances:
    def test_identical_means_balance_to_one(self):
        stats = _stats(read_latencies=[100, 200], write_latencies=[100, 200])
        assert latency_balance(stats) == pytest.approx(1.0)

    def test_imbalance_is_ratio(self):
        stats = _stats(read_latencies=[100], write_latencies=[400])
        assert latency_balance(stats) == pytest.approx(0.25)

    def test_missing_type_degenerates_to_one(self):
        assert latency_balance(_stats(read_latencies=[100])) == 1.0

    def test_variability_balance(self):
        stats = _stats(read_latencies=[100, 300], write_latencies=[200, 202])
        assert 0.0 < variability_balance(stats) < 0.1


class TestGameScore:
    def test_score_discounts_imbalance(self):
        balanced = _stats(read_latencies=[100, 110], write_latencies=[100, 110])
        skewed = _stats(read_latencies=[100, 110], write_latencies=[1000, 3000])
        # Equal completion spans: fix the spans by construction.
        assert game_score(balanced) >= game_score(skewed)

    def test_zero_without_throughput(self):
        assert game_score(_stats()) == 0.0
