"""Tests for the operating-system layer."""

import pytest

from repro import Simulation, small_config
from repro.core.events import IoType
from repro.workloads import SequentialWriterThread, Thread

from tests.conftest import run_workload


class _ProbeThread(Thread):
    """Issues a fixed burst at init and records completion order."""

    def __init__(self, name, count, lpn_base=0):
        super().__init__(name)
        self.count = count
        self.lpn_base = lpn_base
        self.completions = []

    def on_init(self, ctx):
        for offset in range(self.count):
            ctx.write(self.lpn_base + offset)

    def on_io_completed(self, ctx, io):
        self.completions.append(io)
        if len(self.completions) == self.count:
            ctx.finish()


class TestQueueDepth:
    def test_outstanding_never_exceeds_limit(self):
        config = small_config()
        config.host.max_outstanding = 4
        simulation = Simulation(config)
        simulation.add_thread(_ProbeThread("burst", count=64))
        os = simulation.os
        observed = []
        original = os.controller.submit_io

        def watched(io):
            observed.append(os.outstanding)
            original(io)

        os.controller.submit_io = watched
        simulation.run()
        assert observed and max(observed) <= 4

    def test_queue_depth_one_serialises_everything(self):
        config = small_config()
        config.host.max_outstanding = 1
        result = run_workload(config, [_ProbeThread("burst", count=16)])
        # With QD1 the device never sees concurrency: every IO waits for
        # the previous completion, so OS wait dominates.
        assert result.stats.os_wait[IoType.WRITE].maximum > 0


class TestInterrupts:
    def test_thread_callback_invoked_per_completion(self, config):
        probe = _ProbeThread("p", count=10)
        run_workload(config, [probe])
        assert len(probe.completions) == 10

    def test_completion_order_recorded_with_timestamps(self, config):
        probe = _ProbeThread("p", count=10)
        run_workload(config, [probe])
        times = [io.complete_time for io in probe.completions]
        assert times == sorted(times)


class TestThreadLifecycle:
    def test_duplicate_names_rejected(self, config):
        simulation = Simulation(config)
        simulation.add_thread(_ProbeThread("same", 1))
        with pytest.raises(ValueError, match="duplicate"):
            simulation.add_thread(_ProbeThread("same", 1))

    def test_unknown_dependency_rejected_at_start(self, config):
        simulation = Simulation(config)
        simulation.add_thread(_ProbeThread("b", 1), depends_on=["ghost"])
        with pytest.raises(ValueError, match="unknown dependencies"):
            simulation.run()

    def test_dependencies_order_execution(self, config):
        first = _ProbeThread("first", count=5)
        second = _ProbeThread("second", count=5, lpn_base=100)
        simulation = Simulation(config)
        simulation.add_thread(first)
        simulation.add_thread(second, depends_on=["first"])
        simulation.run()
        assert max(io.complete_time for io in first.completions) <= min(
            io.issue_time for io in second.completions
        )

    def test_dependency_chains(self, config):
        order = []

        class Marker(Thread):
            def on_init(self, ctx):
                order.append(self.name)
                ctx.finish()

        simulation = Simulation(config)
        simulation.add_thread(Marker("a"))
        simulation.add_thread(Marker("c"), depends_on=["b"])
        simulation.add_thread(Marker("b"), depends_on=["a"])
        simulation.run()
        assert order == ["a", "b", "c"]

    def test_diamond_dependency_starts_once(self, config):
        starts = []

        class Marker(Thread):
            def on_init(self, ctx):
                starts.append(self.name)
                ctx.finish()

        simulation = Simulation(config)
        simulation.add_thread(Marker("root"))
        simulation.add_thread(Marker("left"), depends_on=["root"])
        simulation.add_thread(Marker("right"), depends_on=["root"])
        simulation.add_thread(Marker("join"), depends_on=["left", "right"])
        simulation.run()
        assert starts.count("join") == 1
        assert starts.index("join") == 3


class TestPerThreadStats:
    def test_stats_attached_and_scoped(self, config):
        result = run_workload(
            config,
            [
                SequentialWriterThread("w1", count=30, region=(0, 100)),
                SequentialWriterThread("w2", count=50, region=(100, 200)),
            ],
        )
        assert result.thread_stats["w1"].completed_ios == 30
        assert result.thread_stats["w2"].completed_ios == 50

    def test_stats_can_be_disabled(self, config):
        simulation = Simulation(config)
        simulation.add_thread(_ProbeThread("quiet", 5), collect_stats=False)
        simulation.run()
        with pytest.raises(LookupError):
            simulation.os.thread_stats("quiet")


class TestContextValidation:
    def test_out_of_range_lpn_rejected(self, config):
        class BadThread(Thread):
            def on_init(self, ctx):
                ctx.write(ctx.logical_pages)  # one past the end

        simulation = Simulation(config)
        simulation.add_thread(BadThread("bad"))
        with pytest.raises(ValueError, match="logical space"):
            simulation.run()

    def test_context_exposes_time_and_rng(self, config):
        seen = {}

        class Inspect(Thread):
            def on_init(self, ctx):
                seen["now"] = ctx.now
                seen["pages"] = ctx.logical_pages
                seen["name"] = ctx.thread_name
                seen["draw"] = ctx.rng().random()
                ctx.finish()

        simulation = Simulation(config)
        simulation.add_thread(Inspect("inspect"))
        simulation.run()
        assert seen["pages"] == config.logical_pages
        assert seen["name"] == "inspect"
        assert 0.0 <= seen["draw"] < 1.0

    def test_rng_streams_are_memoised_per_thread(self, config):
        streams = {}

        class Draw(Thread):
            def on_init(self, ctx):
                streams[self.name] = (ctx.rng("x"), ctx.rng("x"), ctx.rng("y"))
                ctx.finish()

        simulation = Simulation(config)
        simulation.add_thread(Draw("a"))
        simulation.add_thread(Draw("b"))
        simulation.run()
        a_x, a_x_again, a_y = streams["a"]
        assert a_x is a_x_again
        assert a_x is not a_y
        assert a_x is not streams["b"][0]
        # The memo leaves the random source's stream names as they were.
        source = simulation.os.rng
        for name, (x, _, y) in streams.items():
            assert source.stream(f"thread:{name}:x") is x
            assert source.stream(f"thread:{name}:y") is y

    def test_timers_via_schedule(self, config):
        fired = {}

        class TimerThread(Thread):
            def on_init(self, ctx):
                ctx.schedule(5_000, self._tick, ctx)

            def _tick(self, ctx):
                fired["at"] = ctx.now
                ctx.finish()

        simulation = Simulation(config)
        simulation.add_thread(TimerThread("timer"))
        simulation.run()
        assert fired["at"] == 5_000
