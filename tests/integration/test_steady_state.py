"""Steady-state behaviour of the whole stack."""


from repro import Simulation, small_config
from repro.core import units
from repro.core.events import IoType
from repro.workloads import (
    MixedWorkloadThread,
    RandomWriterThread,
    precondition_random,
    precondition_sequential,
)

from tests.conftest import run_workload


class TestSteadyState:
    def test_sustained_random_writes_reach_steady_gc(self, config):
        result = run_workload(
            config,
            [RandomWriterThread("w", count=5000, depth=16)],
            precondition=True,
        )
        assert result.summary()["gc_collected_blocks"] > 50
        waf = result.stats.write_amplification()
        assert 1.0 < waf < 10.0

    def test_preconditioning_changes_behaviour(self):
        """The uFLIP methodology point: measurements on a fresh device
        differ from steady state (no GC vs GC)."""
        fresh = run_workload(
            small_config(), [RandomWriterThread("w", count=1000, depth=8)]
        )
        aged_config = small_config()
        aged = run_workload(
            aged_config,
            [RandomWriterThread("w", count=1000, depth=8)],
            precondition=True,
        )
        assert fresh.stats.write_amplification() <= aged.stats.write_amplification()
        fresh_writes = fresh.thread_stats["w"].latency[IoType.WRITE]
        aged_writes = aged.thread_stats["w"].latency[IoType.WRITE]
        assert aged_writes.mean >= fresh_writes.mean

    def test_random_precondition_composes_with_sequential(self, config):
        simulation = Simulation(config)
        seq = precondition_sequential(config.logical_pages)
        rand = precondition_random(config.logical_pages, overwrite_factor=0.5)
        main = MixedWorkloadThread("main", count=1000, depth=8)
        simulation.add_thread(seq)
        simulation.add_thread(rand, depends_on=[seq.name])
        simulation.add_thread(main, depends_on=[rand.name])
        result = simulation.run()
        simulation.controller.check_invariants()
        assert simulation.os.all_finished
        # The measured thread's stats exclude the preparation phases.
        assert result.thread_stats["main"].completed_ios == 1000

    def test_gc_interference_visible_in_latency_tail(self, config):
        """GC makes the write latency tail (p99) much worse than the
        median -- the latency-variability phenomenon the paper studies."""
        result = run_workload(
            config,
            [RandomWriterThread("w", count=6000, depth=16)],
            precondition=True,
        )
        writes = result.thread_stats["w"].latency[IoType.WRITE]
        assert writes.percentile(99) > 1.5 * writes.percentile(50)

    def test_trims_reduce_gc_work(self, config):
        """TRIM tells the FTL pages are dead; GC then relocates less."""
        from repro.core.events import IoType as T
        from repro.workloads.threads import GeneratorThread

        class TrimmingWriter(GeneratorThread):
            def __init__(self, name, count, trim):
                super().__init__(name, depth=8)
                self.count = count
                self.trim = trim
                self._step = 0

            def next_io(self, ctx):
                if self._step >= self.count:
                    return None
                self._step += 1
                lpn = ctx.rng("a").randrange(ctx.logical_pages)
                if self.trim and self._step % 3 == 0:
                    return (T.TRIM, lpn, None)
                return (T.WRITE, lpn, None)

        with_trim = run_workload(
            small_config(), [TrimmingWriter("w", 4000, trim=True)], precondition=True
        )
        without = run_workload(
            small_config(), [TrimmingWriter("w", 4000, trim=False)], precondition=True
        )
        assert (
            with_trim.gc_relocated_pages <= without.gc_relocated_pages
        )


class TestTimeLimitedRuns:
    def test_open_ended_workload_stops_at_limit(self, config):
        config.max_time_ns = units.milliseconds(50)
        result = run_workload(
            config,
            [MixedWorkloadThread("m", count=10**6, depth=8)],
            check=False,
        )
        assert result.elapsed_ns == units.milliseconds(50)
        assert 0 < result.stats.completed_ios < 10**6
