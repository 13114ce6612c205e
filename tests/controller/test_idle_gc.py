"""Tests for proactive (idle-time) garbage collection."""

import pytest

from repro.core import units

from tests.controller.conftest import ControllerHarness, make_harness


def idle_harness(target=6, threshold_ns=units.microseconds(500), mutate=None):
    def apply(config):
        config.controller.gc_idle_target = target
        config.controller.gc_idle_threshold_ns = threshold_ns
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


def dirty_then_idle(harness: ControllerHarness, idle_ns=units.milliseconds(20)):
    """Create reclaimable garbage, then let the device sit idle."""
    pages = harness.config.logical_pages
    for lpn in range(pages):
        harness.write(lpn)
    harness.run()
    for lpn in range(0, pages, 2):
        harness.write(lpn)
    harness.run()
    # Idle period: just advance virtual time; idle timers fire within.
    harness.sim.run(until=harness.sim.now + idle_ns)


class TestIdleCollection:
    def test_idle_gc_runs_during_quiet_period(self):
        harness = idle_harness()
        dirty_then_idle(harness)
        assert harness.controller.gc.idle_jobs > 0
        harness.controller.check_invariants()

    def test_idle_gc_raises_free_blocks_toward_target(self):
        harness = idle_harness(target=6)
        dirty_then_idle(harness, idle_ns=units.milliseconds(60))
        for lun in harness.controller.array.luns.values():
            start, stop = lun.state.block_range(lun.lun_index)
            reclaimable = bool(
                (
                    (lun.state.dead_count[start:stop] > 0)
                    & (lun.state.live_count[start:stop] < lun.state.pages_per_block)
                ).any()
            )
            # Either the target was met or nothing more was reclaimable.
            assert len(lun.free_block_ids) >= 6 or reclaimable is False or (
                harness.controller.gc.active_jobs
            )

    def test_disabled_by_default(self, harness):
        dirty_then_idle(harness)
        assert harness.controller.gc.idle_jobs == 0

    def test_no_idle_gc_without_garbage(self):
        harness = idle_harness()
        for lpn in range(64):
            harness.write(lpn)
        harness.run()
        harness.sim.run(until=harness.sim.now + units.milliseconds(20))
        assert harness.controller.gc.idle_jobs == 0

    def test_activity_defers_idle_gc(self):
        """A steady trickle of writes (gaps below the threshold) must
        keep the idle collector asleep."""
        harness = idle_harness(target=6, threshold_ns=units.milliseconds(5))
        pages = harness.config.logical_pages
        for lpn in range(pages):
            harness.write(lpn)
        harness.run()
        # Trickle: one write per millisecond -- never idle for 5ms.
        for step in range(40):
            harness.write(step % pages)
            harness.sim.run(until=harness.sim.now + units.milliseconds(1))
        assert harness.controller.gc.idle_jobs == 0

    def test_idle_gc_improves_burst_latency(self):
        """After an idle period, a write burst meets a device with spare
        free blocks: the early burst writes no longer wait behind
        on-demand GC, so the burst's write latency improves.  (Total GC
        volume is conservative -- idle GC shifts *when* the work runs,
        which is exactly the non-obtrusiveness the demo talks about.)"""
        def burst_mean_latency(harness):
            pages = harness.config.logical_pages
            first = len(harness.completed)
            for lpn in range(0, pages, 3):
                harness.write(lpn)
            harness.run()
            burst = [io.latency for io in harness.completed[first:]]
            return sum(burst) / len(burst)

        eager = idle_harness(target=8)
        lazy = idle_harness(target=0)
        dirty_then_idle(eager, idle_ns=units.milliseconds(80))
        dirty_then_idle(lazy, idle_ns=units.milliseconds(80))
        assert burst_mean_latency(eager) < burst_mean_latency(lazy)

    def test_busy_chain_check_leaves_one_idle_poll_per_lun(self):
        """A GC job's chain check that finds its LUN busy re-arms the
        LUN's idle poll; the poll already pending must then go quiet,
        or every such check adds one more polling chain to the LUN."""
        threshold = units.microseconds(500)
        harness = idle_harness(target=6, threshold_ns=threshold)
        pages = harness.config.logical_pages
        for lpn in range(pages):
            harness.write(lpn)
        harness.run()
        for lpn in range(0, pages, 2):
            harness.write(lpn)
        harness.run()
        sim, gc = harness.sim, harness.controller.gc
        lun_key = (0, 0)
        lun = harness.controller.array.luns[lun_key]
        victim = gc._select_victim(lun_key, lun)
        assert victim is not None
        polls = []

        def always_busy(key):
            # Every live poll of an idle LUN now records itself and re-arms.
            polls.append((key, sim.now))
            return True

        gc._has_pending_app_work = always_busy
        gc.note_app_activity(lun_key)
        # The first poll finds the LUN busy and re-arms one threshold on.
        sim.run(until=sim.now + threshold * 3 // 2)
        assert len(polls) == 1
        gc._start_job(lun_key, lun, victim)
        while lun_key in gc.active_jobs:
            sim.run(max_events=1)
        done = sim.now  # the job's chain check is queued at this instant
        sim.run(until=done + 10 * threshold)
        after = [time for key, time in polls if key == lun_key and time > done]
        assert after == [done + k * threshold for k in range(1, 11)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            idle_harness(target=-1)
        with pytest.raises(ValueError):
            idle_harness(target=4, threshold_ns=0)
