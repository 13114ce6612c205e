"""Degraded mode: watermarks, shedding, throttling, accounting.

Crossing the queue-depth watermark enters a degraded state that sheds
low-priority IOs and rate-limits admission until the backlog drains to
half that watermark.  Entries and virtual time spent degraded are
counted and surfaced through the summary.
"""

from __future__ import annotations

from typing import Optional

from repro import small_config
from repro.core import units
from repro.core.events import IoType, WriteHints
from repro.workloads import TraceReplayThread
from repro.workloads.threads import GeneratorThread, Op
from repro.workloads.trace_replay import generate_poisson_trace

from tests.conftest import run_workload
from tests.controller.conftest import ControllerHarness


class PriorityWriter(GeneratorThread):
    """Writes with a fixed priority hint (larger = less urgent)."""

    def __init__(self, name: str, count: int, priority: int, depth: int = 8):
        super().__init__(name, depth=depth)
        self.count = count
        self.priority = priority

    def next_io(self, ctx) -> Optional[Op]:
        if self.count <= 0:
            return None
        self.count -= 1
        lpn = self.count % ctx.logical_pages
        return (IoType.WRITE, lpn, WriteHints(priority=self.priority))


def degraded_config(**overload):
    config = small_config(seed=37)
    config.sanitize = True
    config.overload.enabled = True
    config.overload.degraded_enter_pending = 4
    for key, value in overload.items():
        setattr(config.overload, key, value)
    return config


def storm_thread(config, rate_iops=1_000_000, duration_ns=units.milliseconds(1)):
    trace = generate_poisson_trace(
        rate_iops, duration_ns, config.logical_pages, read_fraction=0.3, seed=41
    )
    return TraceReplayThread("storm", trace, timed=True)


class TestWatermarks:
    def test_backlog_enters_and_exits_degraded_mode(self):
        config = degraded_config()
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["degraded_entries"] > 0
        assert summary["time_degraded_ms"] > 0
        # The run drained, so the governor must have exited by the end.
        assert result.simulation.controller.overload.degraded is False

    def test_quiet_device_never_degrades(self):
        config = degraded_config(degraded_enter_pending=10_000)
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["degraded_entries"] == 0
        assert summary["time_degraded_ms"] == 0

    def test_exits_at_half_the_enter_watermark(self):
        config = degraded_config(degraded_enter_pending=9)
        governor = ControllerHarness(config).controller.overload
        governor._update_degraded(8)
        assert governor.degraded is False
        governor._update_degraded(9)
        assert governor.degraded is True
        governor._update_degraded(5)
        assert governor.degraded is True
        governor._update_degraded(4)
        assert governor.degraded is False


class TestShedding:
    def _run(self, priority: int):
        config = degraded_config(shed_priority_threshold=2)
        config.host.open_interface = True
        writer = PriorityWriter("writer", count=200, priority=priority)
        return run_workload(config, [writer]).summary()

    def test_low_priority_ios_are_shed(self):
        summary = self._run(priority=5)
        assert summary["shed_ios"] > 0
        assert summary["busy_ios"] == summary["shed_ios"] + summary[
            "device_busy_rejections"
        ] + summary["throttled_ios"] + summary["host_rejections"]

    def test_urgent_ios_are_never_shed(self):
        summary = self._run(priority=0)
        assert summary["shed_ios"] == 0

    def test_shedding_needs_the_open_interface(self):
        # Without the open interface the device sees no hints at all
        # (hints_of returns {}), so nothing can be classified for
        # shedding -- same contract as the priority scheduler.
        config = degraded_config(shed_priority_threshold=2)
        writer = PriorityWriter("writer", count=200, priority=5)
        assert run_workload(config, [writer]).summary()["shed_ios"] == 0


class TestThrottling:
    def test_admission_gap_rate_limits_degraded_admission(self):
        config = degraded_config(
            degraded_admission_gap_ns=units.microseconds(10)
        )
        result = run_workload(config, [storm_thread(config)])
        assert result.summary()["throttled_ios"] > 0

    def test_no_gap_no_throttle(self):
        config = degraded_config(degraded_admission_gap_ns=0)
        result = run_workload(config, [storm_thread(config)])
        assert result.summary()["throttled_ios"] == 0
