"""Tests for statistics gathering."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import units
from repro.core.events import IoRequest, IoType
from repro.core.statistics import LatencyRecorder, StatisticsGatherer, TimeSeries


def _completed_io(io_type, issue, dispatch, complete, lpn=0):
    io = IoRequest(io_type, lpn)
    io.issue_time = issue
    io.dispatch_time = dispatch
    io.complete_time = complete
    return io


class TestLatencyRecorder:
    def test_empty_recorder_is_zeroes(self):
        recorder = LatencyRecorder()
        assert recorder.count == 0
        assert recorder.mean == 0.0
        assert recorder.stddev == 0.0
        assert recorder.percentile(99) == 0.0
        assert recorder.describe() == "no samples"

    def test_basic_moments(self):
        recorder = LatencyRecorder()
        for sample in (10, 20, 30):
            recorder.record(sample)
        assert recorder.count == 3
        assert recorder.mean == 20.0
        assert recorder.minimum == 10
        assert recorder.maximum == 30
        assert recorder.stddev == pytest.approx(math.sqrt(200 / 3))

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_merge(self):
        a, b = LatencyRecorder(), LatencyRecorder()
        a.record(5)
        b.record(15)
        a.merge(b)
        assert a.count == 2 and a.mean == 10.0

    def test_summary_keys(self):
        recorder = LatencyRecorder()
        recorder.record(100)
        summary = recorder.summary()
        assert set(summary) == {
            "count", "mean_ns", "stddev_ns", "min_ns",
            "p50_ns", "p95_ns", "p99_ns", "max_ns",
        }

    @given(
        st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=200),
        st.data(),
    )
    def test_property_matches_numpy(self, samples, data):
        recorder = LatencyRecorder()
        for sample in samples:
            recorder.record(sample)
        array = np.asarray(samples, dtype=np.int64)
        assert recorder.mean == pytest.approx(float(np.mean(array)))
        assert recorder.stddev == pytest.approx(float(np.std(array)), abs=1e-6)
        assert recorder.percentile(50) == pytest.approx(float(np.percentile(array, 50)))
        assert recorder.minimum == int(array.min())
        assert recorder.maximum == int(array.max())
        # The same samples recorded in two halves and merged.
        split = data.draw(st.integers(min_value=0, max_value=len(samples)), label="split")
        head, tail = LatencyRecorder(), LatencyRecorder()
        for sample in samples[:split]:
            head.record(sample)
        for sample in samples[split:]:
            tail.record(sample)
        head.merge(tail)
        assert head.count == len(samples)
        assert head.mean == pytest.approx(float(np.mean(array)))
        assert head.minimum == int(array.min())
        assert head.maximum == int(array.max())
        assert head.stddev == pytest.approx(float(np.std(array)), abs=1e-6)
        assert head.percentile(50) == pytest.approx(float(np.percentile(array, 50)))
        assert head.percentile(99) == pytest.approx(float(np.percentile(array, 99)))
        assert head.samples() == samples

    def test_record_after_every_reader(self):
        """No reader leaves a numpy view pinning the sample buffer: one
        would make the next append raise ``BufferError``."""
        recorder = LatencyRecorder()
        for sample in (30, 10, 20):
            recorder.record(sample)
        readers = (
            recorder.summary,
            lambda: recorder.percentile(99),
            lambda: recorder.stddev,
            recorder.samples,
            recorder.describe,
            lambda: LatencyRecorder().merge(recorder),
        )
        for index, read in enumerate(readers):
            read()
            recorder.record(40 + index)
        assert recorder.count == 3 + len(readers)
        assert recorder.maximum == 40 + len(readers) - 1


class TestTimeSeries:
    def test_bucketing(self):
        series = TimeSeries(bucket_ns=100)
        series.add(10)
        series.add(99)
        series.add(100)
        series.add(250)
        assert series.series() == [(0, 2.0), (100, 1.0), (200, 1.0)]

    def test_dense_output_fills_gaps(self):
        series = TimeSeries(bucket_ns=10)
        series.add(0)
        series.add(35)
        values = dict(series.series())
        assert values[10] == 0.0 and values[20] == 0.0

    def test_rate_per_second_scaling(self):
        series = TimeSeries(bucket_ns=units.MILLISECOND)
        series.add(0)
        series.add(100)
        assert series.rate_per_second()[0][1] == pytest.approx(2000.0)

    def test_rejects_nonpositive_bucket(self):
        with pytest.raises(ValueError):
            TimeSeries(bucket_ns=0)

    def test_empty_series(self):
        assert TimeSeries().series() == []


class TestStatisticsGatherer:
    def test_records_by_type(self):
        stats = StatisticsGatherer()
        stats.record_io(_completed_io(IoType.READ, 0, 10, 100))
        stats.record_io(_completed_io(IoType.WRITE, 0, 5, 200))
        assert stats.completed(IoType.READ) == 1
        assert stats.completed(IoType.WRITE) == 1
        assert stats.latency[IoType.READ].mean == 100
        assert stats.os_wait[IoType.WRITE].mean == 5
        assert stats.device_latency[IoType.READ].mean == 90

    def test_host_rejected_io_has_no_device_samples(self):
        """A host-rejected IO is never dispatched: it adds an end-to-end
        sample and a completion, but no device latency or OS wait."""
        stats = StatisticsGatherer(bucket_ns=100)
        stats.record_io(_completed_io(IoType.WRITE, 10, None, 70))
        assert stats.latency[IoType.WRITE].samples() == [60]
        assert stats.completions_over_time[IoType.WRITE].series() == [(0, 1.0)]
        assert stats.latency_sum_over_time[IoType.WRITE].series() == [(0, 60.0)]
        assert stats.device_latency[IoType.WRITE].count == 0
        assert stats.os_wait[IoType.WRITE].count == 0
        assert stats.completed_ios == 1

    def test_dispatched_io_adds_all_three_samples(self):
        stats = StatisticsGatherer(bucket_ns=100)
        stats.record_io(_completed_io(IoType.READ, 10, 25, 170))
        assert stats.latency[IoType.READ].samples() == [160]
        assert stats.device_latency[IoType.READ].samples() == [145]
        assert stats.os_wait[IoType.READ].samples() == [15]
        assert stats.completions_over_time[IoType.READ].series() == [(0, 0.0), (100, 1.0)]
        assert stats.latency_sum_over_time[IoType.READ].series() == [(0, 0.0), (100, 160.0)]
        assert all(stats.latency[t].count == 0 for t in (IoType.WRITE, IoType.TRIM))

    def test_incomplete_io_rejected(self):
        stats = StatisticsGatherer()
        with pytest.raises(ValueError):
            stats.record_io(IoRequest(IoType.READ, 0))

    def test_throughput_over_completion_span(self):
        stats = StatisticsGatherer()
        stats.record_io(_completed_io(IoType.READ, 0, 0, 0))
        stats.record_io(_completed_io(IoType.READ, 0, 0, units.SECOND))
        assert stats.throughput_iops() == pytest.approx(2.0)

    def test_throughput_zero_for_single_completion(self):
        stats = StatisticsGatherer()
        stats.record_io(_completed_io(IoType.READ, 0, 0, 50))
        assert stats.throughput_iops() == 0.0

    def test_write_amplification(self):
        stats = StatisticsGatherer()
        for _ in range(10):
            stats.record_flash_command("APPLICATION", "PROGRAM", 0)
        for _ in range(5):
            stats.record_flash_command("GC", "COPYBACK", 0)
        stats.record_flash_command("GC", "ERASE", 0)  # erases don't count
        assert stats.write_amplification() == pytest.approx(1.5)

    def test_write_amplification_zero_without_app_writes(self):
        stats = StatisticsGatherer()
        stats.record_flash_command("GC", "PROGRAM", 0)
        assert stats.write_amplification() == 0.0

    def test_gc_activity_timeline(self):
        stats = StatisticsGatherer(bucket_ns=100)
        stats.record_flash_command("GC", "PROGRAM", 50)
        stats.record_flash_command("WEAR_LEVELING", "PROGRAM", 150)
        stats.record_flash_command("APPLICATION", "PROGRAM", 150)
        assert stats.gc_activity_over_time.series() == [(0, 1.0), (100, 1.0)]

    def test_summary_and_report(self):
        stats = StatisticsGatherer("t")
        stats.record_io(_completed_io(IoType.WRITE, 0, 0, 100))
        stats.record_flash_command("APPLICATION", "PROGRAM", 100)
        summary = stats.summary()
        assert summary["completed_writes"] == 1.0
        report = stats.report()
        assert "statistics: t" in report and "write" in report


class TestDeviceLatencySummary:
    def test_summary_includes_device_means(self):
        stats = StatisticsGatherer()
        stats.record_io(_completed_io(IoType.WRITE, 0, 40, 100))
        summary = stats.summary()
        assert summary["write_device_mean_ns"] == pytest.approx(60.0)
        assert summary["read_device_mean_ns"] == 0.0
