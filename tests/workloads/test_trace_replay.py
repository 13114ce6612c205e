"""Tests for trace replay."""

import dataclasses
import pickle

import pytest

from repro.core import units
from repro.core.events import IoType
from repro.workloads import TraceRecordOp, TraceReplayThread
from repro.workloads.trace_replay import load_trace_csv

from tests.conftest import run_workload


def _trace(n=10, spacing_ns=1000, op=IoType.WRITE):
    return [TraceRecordOp(i * spacing_ns, op, i) for i in range(n)]


class TestRecord:
    def test_slotted_frozen_and_picklable(self):
        record = TraceRecordOp(5, IoType.READ, 7)
        assert not hasattr(record, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.lpn = 8
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record
        assert copy.io_type is IoType.READ


class TestClosedLoop:
    def test_replays_every_record(self, config):
        thread = TraceReplayThread("replay", _trace(20), timed=False, depth=4)
        result = run_workload(config, [thread])
        assert result.stats.completed_ios == 20

    def test_records_replayed_in_order(self, config):
        lpns = []
        thread = TraceReplayThread("replay", _trace(10), timed=False, depth=1)
        original = thread.next_io

        def recording(ctx):
            op = original(ctx)
            if op:
                lpns.append(op[1])
            return op

        thread.next_io = recording
        run_workload(config, [thread])
        assert lpns == list(range(10))

    def test_unsorted_trace_is_sorted_by_time(self, config):
        records = [
            TraceRecordOp(3000, IoType.WRITE, 3),
            TraceRecordOp(1000, IoType.WRITE, 1),
            TraceRecordOp(2000, IoType.WRITE, 2),
        ]
        thread = TraceReplayThread("replay", records, timed=False)
        assert [record.lpn for record in thread.trace] == [1, 2, 3]


class TestOpenLoop:
    def test_issue_times_follow_trace_timestamps(self, config):
        spacing = units.microseconds(500)
        config.host.retain_completed_ios = True
        thread = TraceReplayThread("replay", _trace(5, spacing), timed=True)
        result = run_workload(config, [thread])
        issue_times = sorted(io.issue_time for io in result.completed_ios)
        assert issue_times == [i * spacing for i in range(5)]

    def test_open_loop_completes_and_finishes(self, config):
        thread = TraceReplayThread("replay", _trace(8, units.microseconds(100)), timed=True)
        result = run_workload(config, [thread])
        assert result.stats.completed_ios == 8

    def test_empty_timed_trace_finishes(self, config):
        thread = TraceReplayThread("replay", [], timed=True)
        result = run_workload(config, [thread])
        assert result.stats.completed_ios == 0


class TestCsv:
    def test_load_round_trip(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text(
            "time_ns,op,lpn\n"
            "# comment\n"
            "2000,W,5\n"
            "1000,R,3\n"
            "3000,T,5\n"
        )
        records = load_trace_csv(str(path))
        assert records == [
            TraceRecordOp(1000, IoType.READ, 3),
            TraceRecordOp(2000, IoType.WRITE, 5),
            TraceRecordOp(3000, IoType.TRIM, 5),
        ]

    def test_unknown_op_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1000,X,3\n")
        with pytest.raises(ValueError, match="unknown trace op"):
            load_trace_csv(str(path))




class TestPoissonGenerator:
    def test_rate_controls_record_count(self):
        from repro.core import units
        from repro.workloads import generate_poisson_trace

        duration = units.milliseconds(100)
        low = generate_poisson_trace(1_000, duration, 1000, seed=1)
        high = generate_poisson_trace(10_000, duration, 1000, seed=1)
        # Expected counts: 100 and 1000 arrivals (Poisson, so approx).
        assert 60 <= len(low) <= 140
        assert 800 <= len(high) <= 1200

    def test_timestamps_sorted_and_bounded(self):
        from repro.core import units
        from repro.workloads import generate_poisson_trace

        duration = units.milliseconds(50)
        trace = generate_poisson_trace(5_000, duration, 512, seed=3)
        times = [record.time_ns for record in trace]
        assert times == sorted(times)
        assert all(0 <= t < duration for t in times)
        assert all(0 <= record.lpn < 512 for record in trace)

    def test_read_fraction_respected(self):
        from repro.core import units
        from repro.core.events import IoType
        from repro.workloads import generate_poisson_trace

        trace = generate_poisson_trace(
            20_000, units.milliseconds(100), 1000, read_fraction=0.8, seed=5
        )
        reads = sum(1 for record in trace if record.io_type is IoType.READ)
        assert 0.7 < reads / len(trace) < 0.9

    def test_deterministic_per_seed(self):
        from repro.core import units
        from repro.workloads import generate_poisson_trace

        a = generate_poisson_trace(3_000, units.milliseconds(30), 256, seed=9)
        b = generate_poisson_trace(3_000, units.milliseconds(30), 256, seed=9)
        assert a == b

    def test_invalid_parameters(self):
        import pytest

        from repro.workloads import generate_poisson_trace

        with pytest.raises(ValueError):
            generate_poisson_trace(0, 1000, 100)
        with pytest.raises(ValueError):
            generate_poisson_trace(1000, 1000, 100, read_fraction=2.0)

    def test_replays_through_the_stack(self, config):
        from repro.core import units
        from repro.workloads import TraceReplayThread, generate_poisson_trace

        trace = generate_poisson_trace(
            5_000, units.milliseconds(20), config.logical_pages, seed=4
        )
        thread = TraceReplayThread("poisson", trace, timed=True)
        result = run_workload(config, [thread])
        assert result.stats.completed_ios == len(trace)
