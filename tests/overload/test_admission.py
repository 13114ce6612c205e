"""Admission control: host pool bound and device queue bound.

Host rejections are *final* (the application must slow down; only device
pushback goes through the retry ladder).  A full host pool completes the
rejected IO with ``BUSY``, a status the issuing thread reads back from
its completion callback like any other.
"""

from __future__ import annotations

from repro import IoStatus, small_config
from repro.core import units
from repro.workloads import RandomWriterThread, TraceReplayThread
from repro.core.events import IoType
from repro.workloads.trace_replay import TraceRecordOp, generate_poisson_trace

from tests.conftest import run_workload


def overloaded_config(**overload):
    config = small_config(seed=11)
    config.sanitize = True
    config.host.retain_completed_ios = True
    config.overload.enabled = True
    for key, value in overload.items():
        setattr(config.overload, key, value)
    return config


def open_loop_thread(config, rate_iops=1_000_000, duration_ns=units.milliseconds(1)):
    trace = generate_poisson_trace(
        rate_iops, duration_ns, config.logical_pages, read_fraction=0.5, seed=23
    )
    return TraceReplayThread("ramp", trace, timed=True)


class TestHostAdmission:
    def test_full_pool_completes_with_busy(self):
        config = overloaded_config(host_queue_bound=8)
        config.host.max_outstanding = 4
        thread = open_loop_thread(config)
        result = run_workload(config, [thread])
        summary = result.summary()
        assert summary["host_rejections"] > 0
        assert summary["busy_ios"] > 0
        busy = [
            io
            for io in result.simulation.os.completed_ios
            if io.status is IoStatus.BUSY
        ]
        assert busy
        # Host-rejected IOs never reached the device or the retry ladder.
        assert all(io.dispatch_time is None for io in busy)
        assert all(io.attempts == 0 for io in busy)

    def test_pool_depth_never_exceeds_the_bound(self):
        config = overloaded_config(host_queue_bound=8)
        config.host.max_outstanding = 4
        result = run_workload(config, [open_loop_thread(config)])
        assert result.summary()["os_queue_high_watermark"] <= 8

    def test_unbounded_legacy_pool_grows_past_that(self):
        config = small_config(seed=11)
        config.sanitize = True
        config.host.max_outstanding = 4
        thread = open_loop_thread(config)
        result = run_workload(config, [thread])
        summary = result.summary()
        assert summary["host_rejections"] == 0
        assert summary["os_queue_high_watermark"] > 8

    def test_full_pool_completes_busy_to_the_generator(self):
        config = overloaded_config(host_queue_bound=2)
        config.host.max_outstanding = 2
        writer = RandomWriterThread("writer", count=300, depth=16)
        result = run_workload(config, [writer])
        summary = result.summary()
        assert summary["host_rejections"] > 0
        # Every rejection reached the generator as a BUSY completion,
        # which refilled the window: all 300 writes completed, OK or
        # BUSY, and the generator finished.
        assert summary["busy_ios"] == summary["host_rejections"]
        statuses = [io.status for io in result.simulation.os.completed_ios]
        assert len(statuses) == 300
        assert statuses.count(IoStatus.OK) == 300 - summary["host_rejections"]

    def test_full_pool_completes_every_open_loop_arrival(self):
        # Twelve arrivals at one instant: two reach the device, two wait
        # in the pool, and the other eight -- the final arrival among
        # them -- are rejected.  Each completes BUSY, and the final one's
        # completion is what lets the thread finish.
        config = overloaded_config(host_queue_bound=2)
        config.host.max_outstanding = 2
        trace = [TraceRecordOp(0, IoType.WRITE, lpn) for lpn in range(12)]
        thread = TraceReplayThread("burst", trace, timed=True)
        result = run_workload(config, [thread])
        summary = result.summary()
        completed = {io.lpn: io.status for io in result.simulation.os.completed_ios}
        assert len(completed) == len(trace)
        assert completed[trace[-1].lpn] is IoStatus.BUSY
        assert summary["busy_ios"] == summary["host_rejections"] == 8
        assert thread._outstanding_open_loop == 0


class TestDeviceAdmission:
    def test_device_bound_busies_new_ios(self):
        config = overloaded_config(device_queue_bound=8)
        result = run_workload(config, [open_loop_thread(config)])
        summary = result.summary()
        assert summary["device_busy_rejections"] > 0
        assert summary["busy_ios"] > 0

    def test_retry_ladder_recovers_device_rejections(self):
        config = overloaded_config(
            device_queue_bound=8,
            max_retries=8,
            retry_backoff_ns=units.microseconds(20),
        )
        result = run_workload(
            config,
            [open_loop_thread(config, duration_ns=units.microseconds(300))],
        )
        summary = result.summary()
        assert summary["device_busy_rejections"] > 0
        assert summary["io_retries"] > 0
        retried_ok = [
            io
            for io in result.simulation.os.completed_ios
            if io.status is IoStatus.OK and io.attempts > 0
        ]
        assert retried_ok, "some rejected IO must succeed on retry"
