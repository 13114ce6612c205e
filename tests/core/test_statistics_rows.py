"""The row-per-IO gatherer against the eager one it replaced.

``_EagerGatherer`` is the earlier :class:`StatisticsGatherer`: it fed
five recorders on every completed IO.  The row-based gatherer stores
each IO's timestamps once and derives the same recorders and series on
read; every observable result must be identical, value and type.
"""

from __future__ import annotations

import pickle
from collections import Counter
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import units
from repro.core.events import IoRequest, IoType
from repro.core.statistics import (
    LatencyRecorder,
    StatisticsGatherer,
    TimeSeries,
    serialize_summary,
)

BUCKET_NS = 100


class _EagerGatherer:
    """The reference: recorders and time series fed as each IO completes."""

    def __init__(self, bucket_ns: int) -> None:
        self.latency = {t: LatencyRecorder() for t in IoType}
        self.device_latency = {t: LatencyRecorder() for t in IoType}
        self.os_wait = {t: LatencyRecorder() for t in IoType}
        self.completions_over_time = {t: TimeSeries(bucket_ns) for t in IoType}
        self.latency_sum_over_time = {t: TimeSeries(bucket_ns) for t in IoType}
        self.flash_commands: Counter[tuple[str, str]] = Counter()
        self.gc_activity_over_time = TimeSeries(bucket_ns)
        self.first_completion_ns: Optional[int] = None
        self.last_completion_ns: Optional[int] = None
        self.completed_ios = 0

    def record_io(self, io: IoRequest) -> None:
        complete = io.complete_time
        self.completed_ios += 1
        if self.first_completion_ns is None:
            self.first_completion_ns = complete
        self.last_completion_ns = complete
        issue, dispatch, t = io.issue_time, io.dispatch_time, io.io_type
        if issue is not None:
            self.latency[t].record(complete - issue)
            self.latency_sum_over_time[t].add(complete, complete - issue)
        if dispatch is not None:
            self.device_latency[t].record(complete - dispatch)
            if issue is not None:
                self.os_wait[t].record(dispatch - issue)
        self.completions_over_time[t].add(complete)

    def record_flash_command(self, source_name: str, kind_name: str, time_ns: int) -> None:
        self.flash_commands[(source_name, kind_name)] += 1
        if source_name in ("GC", "WEAR_LEVELING") and kind_name in ("PROGRAM", "COPYBACK"):
            self.gc_activity_over_time.add(time_ns)

    def completed(self, io_type: IoType) -> int:
        return self.latency[io_type].count

    def throughput_iops(self) -> float:
        first, last = self.first_completion_ns, self.last_completion_ns
        if first is None or last is None or last <= first:
            return 0.0
        return self.completed_ios * units.SECOND / (last - first)

    def summary(self) -> dict[str, float]:
        reads, writes = self.latency[IoType.READ], self.latency[IoType.WRITE]
        app = self.flash_commands.get(("APPLICATION", "PROGRAM"), 0)
        programs = sum(
            count for (_, kind), count in self.flash_commands.items()
            if kind in ("PROGRAM", "COPYBACK")
        )
        return {
            "completed_ios": float(self.completed_ios),
            "completed_reads": float(reads.count),
            "completed_writes": float(writes.count),
            "throughput_iops": self.throughput_iops(),
            "read_mean_ns": reads.mean,
            "read_p99_ns": reads.percentile(99),
            "read_stddev_ns": reads.stddev,
            "write_mean_ns": writes.mean,
            "write_p99_ns": writes.percentile(99),
            "write_stddev_ns": writes.stddev,
            "read_device_mean_ns": self.device_latency[IoType.READ].mean,
            "write_device_mean_ns": self.device_latency[IoType.WRITE].mean,
            "write_amplification": programs / app if app else 0.0,
            "erases": float(
                sum(c for (_, kind), c in self.flash_commands.items() if kind == "ERASE")
            ),
            "gc_programs": float(self.flash_commands.get(("GC", "PROGRAM"), 0))
            + float(self.flash_commands.get(("GC", "COPYBACK"), 0)),
            "mapping_ios": float(
                sum(c for (src, _), c in self.flash_commands.items() if src == "MAPPING")
            ),
        }


def _io(io_type, issue, dispatch, complete) -> IoRequest:
    io = IoRequest(io_type, 0)
    io.issue_time, io.dispatch_time, io.complete_time = issue, dispatch, complete
    return io


@st.composite
def _ios(draw, types):
    """One completed IO: any stamp but completion may be missing, and
    completion times are not ordered across IOs."""
    issue = draw(st.none() | st.integers(0, 1_000))
    dispatch = draw(st.none() | st.integers(issue or 0, 1_500))
    complete = draw(st.integers(max(issue or 0, dispatch or 0), 2_000))
    return _io(draw(st.sampled_from(types)), issue, dispatch, complete)


@st.composite
def _workloads(draw):
    # A subset of the IO types, so some draws leave a type with no IO.
    types = sorted(draw(st.sets(st.sampled_from(IoType), min_size=1)), key=lambda t: t.value)
    ios = draw(st.lists(_ios(types), max_size=60))
    commands = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["APPLICATION", "GC", "WEAR_LEVELING", "MAPPING"]),
                st.sampled_from(["READ", "PROGRAM", "COPYBACK", "ERASE"]),
                st.integers(0, 2_000),
            ),
            max_size=20,
        )
    )
    return ios, commands


def _observe(stats) -> dict:
    """Everything a gatherer reports, with the types of its values."""
    seen = {
        "summary": serialize_summary(stats.summary()),
        "completed_ios": stats.completed_ios,
        "throughput_iops": repr(stats.throughput_iops()),
        "first": stats.first_completion_ns,
        "last": stats.last_completion_ns,
        "gc_activity": repr(stats.gc_activity_over_time.series()),
    }
    for t in IoType:
        seen[f"completed {t}"] = stats.completed(t)
        for name in ("latency", "device_latency", "os_wait"):
            recorder = getattr(stats, name)[t]
            seen[f"{name} {t}"] = (recorder.samples(), repr(recorder.summary()))
        for name in ("completions_over_time", "latency_sum_over_time"):
            seen[f"{name} {t}"] = repr(getattr(stats, name)[t].series())
    return seen


def _feed(gatherers, ios, commands) -> None:
    for io in ios:
        for stats in gatherers:
            stats.record_io(io)
    for command in commands:
        for stats in gatherers:
            stats.record_flash_command(*command)


@settings(max_examples=200, deadline=None)
@given(_workloads(), st.data())
def test_rows_match_the_eager_gatherer(workload, data):
    ios, commands = workload
    split = data.draw(st.integers(0, len(ios)), label="split")
    reference, rows = _EagerGatherer(BUCKET_NS), StatisticsGatherer(bucket_ns=BUCKET_NS)
    _feed((reference, rows), ios[:split], commands)
    # Reading between records must leave the columns appendable.
    assert _observe(rows) == _observe(reference)
    _feed((reference, rows), ios[split:], ())
    assert _observe(rows) == _observe(reference)


def test_several_completions_in_one_bucket():
    stats = StatisticsGatherer(bucket_ns=BUCKET_NS)
    for complete in (130, 110, 190, 20):
        stats.record_io(_io(IoType.WRITE, 10, 15, complete))
    assert stats.completions_over_time[IoType.WRITE].series() == [(0, 1.0), (100, 3.0)]
    assert stats.latency_sum_over_time[IoType.WRITE].series() == [(0, 10), (100, 400)]
    assert stats.latency[IoType.WRITE].samples() == [120, 100, 180, 10]
    assert stats.last_completion_ns == 20


@pytest.mark.parametrize(
    "issue, dispatch, complete",
    [(50, None, 40), (None, 50, 40), (50, 40, 60)],
    ids=["complete-before-issue", "complete-before-dispatch", "dispatch-before-issue"],
)
def test_negative_differences_rejected(issue, dispatch, complete):
    with pytest.raises(ValueError, match="negative latency"):
        StatisticsGatherer().record_io(_io(IoType.READ, issue, dispatch, complete))


@settings(max_examples=50, deadline=None)
@given(_workloads(), _workloads())
def test_pickled_gatherer_reports_and_records_alike(before, after):
    stats = StatisticsGatherer(bucket_ns=BUCKET_NS)
    _feed((stats,), *before)
    copy = pickle.loads(pickle.dumps(stats))
    assert _observe(copy) == _observe(stats)
    _feed((stats, copy), *after)
    assert _observe(copy) == _observe(stats)
