"""Tests for parallel sweep execution (repro.core.parallel).

The contract under test: a sweep distributed over worker processes is
*indistinguishable* from the historical serial sweep -- same results in
the same order, bit-identical summary dictionaries -- and a failing or
unpicklable run surfaces as a :class:`SweepRunError` naming the run,
never as a hung sweep.
"""

import pytest

from repro import (
    GridExperiment,
    Parameter,
    RunSpec,
    SweepExecutor,
    SweepRunError,
    small_config,
)
from repro.core.parallel import default_workers
from repro.workloads import MixedWorkloadThread, RandomWriterThread

WORKERS = 4


def small_write_workload(config):
    """Module-level factory: picklable by every start method."""
    return [RandomWriterThread("writer", count=300, depth=8)]


def mixed_workload(config):
    return [MixedWorkloadThread("mix", count=300, read_fraction=0.5, depth=8)]


def failing_workload(config):
    raise RuntimeError("boom in workload factory")


def _reliability_config():
    config = small_config()
    config.reliability.enabled = True
    config.reliability.base_rber = 5e-4
    config.reliability.wear_coefficient = 2.0
    config.reliability.ecc_correctable_bits = 4
    config.reliability.max_read_retries = 2
    config.reliability.parity = True
    config.reliability.spare_blocks_per_lun = 1
    config.controller.overprovisioning = 0.3
    return config


def _greediness_template(config, workload=small_write_workload):
    """A one-axis grid: the paper's experiment template."""
    return GridExperiment(
        name="parallel-equivalence",
        base_config=config,
        parameters=[Parameter("greediness", path="controller.gc_greediness")],
        values=[[1, 2, 3, 4]],
        workload=workload,
    )


class TestSweepExecutor:
    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=0)

    def test_workers_none_uses_cpu_count(self):
        assert SweepExecutor(workers=None).workers == default_workers()

    def test_serial_map_preserves_order(self):
        specs = [
            RunSpec(config=small_config(seed=seed), workload=small_write_workload,
                    index=index, label=seed)
            for index, seed in enumerate([1, 2, 3])
        ]
        results = SweepExecutor(workers=1).map(specs)
        assert [r.config.seed for r in results] == [1, 2, 3]

    def test_parallel_map_preserves_order(self):
        specs = [
            RunSpec(config=small_config(seed=seed), workload=small_write_workload,
                    index=index, label=seed)
            for index, seed in enumerate([5, 6, 7, 8])
        ]
        results = SweepExecutor(workers=WORKERS).map(specs)
        assert [r.config.seed for r in results] == [5, 6, 7, 8]

    def test_progress_fires_in_sweep_order(self):
        specs = [
            RunSpec(config=small_config(seed=seed), workload=small_write_workload,
                    index=index, label=seed)
            for index, seed in enumerate([11, 12, 13, 14])
        ]
        seen = []
        SweepExecutor(workers=WORKERS).map(
            specs, progress=lambda spec, result: seen.append(spec.label)
        )
        assert seen == [11, 12, 13, 14]

    def test_serial_failure_names_the_run(self):
        specs = [RunSpec(config=small_config(), workload=failing_workload,
                         index=0, label="bad-run")]
        with pytest.raises(SweepRunError, match="bad-run"):
            SweepExecutor(workers=1).map(specs)

    def test_worker_failure_names_the_run_not_a_hang(self):
        specs = [
            RunSpec(config=small_config(), workload=small_write_workload,
                    index=0, label="good"),
            RunSpec(config=small_config(), workload=failing_workload,
                    index=1, label="bad-run"),
        ]
        with pytest.raises(SweepRunError, match="bad-run") as excinfo:
            SweepExecutor(workers=2).map(specs)
        assert excinfo.value.index == 1

    def test_unpicklable_workload_surfaces_as_run_error(self):
        specs = [
            RunSpec(config=small_config(), workload=lambda config: [],
                    index=0, label="lambda-run"),
            RunSpec(config=small_config(), workload=lambda config: [],
                    index=1, label="lambda-run-2"),
        ]
        with pytest.raises(SweepRunError):
            SweepExecutor(workers=2).map(specs)


class TestSerialParallelEquivalence:
    def test_template_summaries_bit_identical(self):
        serial = _greediness_template(small_config()).run(workers=1)
        parallel = _greediness_template(small_config()).run(workers=WORKERS)
        assert [run.values for run in serial.runs] == [run.values for run in parallel.runs]
        for s, p in zip(serial.runs, parallel.runs):
            assert s.result.summary() == p.result.summary()

    def test_grid_summaries_bit_identical(self):
        def grid():
            return GridExperiment(
                "grid-equivalence",
                small_config(),
                [
                    Parameter("greediness", path="controller.gc_greediness"),
                    Parameter("qd", path="host.max_outstanding"),
                ],
                [[1, 2], [8, 16]],
                mixed_workload,
            )

        serial = grid().run(workers=1)
        parallel = grid().run(workers=WORKERS)
        assert [run.values for run in serial.runs] == [
            run.values for run in parallel.runs
        ]
        for s, p in zip(serial.runs, parallel.runs):
            assert s.result.summary() == p.result.summary()

    def test_equivalence_with_reliability_enabled(self):
        serial = _greediness_template(
            _reliability_config(), workload=mixed_workload
        ).run(workers=1)
        parallel = _greediness_template(
            _reliability_config(), workload=mixed_workload
        ).run(workers=WORKERS)
        for s, p in zip(serial.runs, parallel.runs):
            assert s.result.summary() == p.result.summary()
        # The reliability machinery really ran: its counters appear in
        # the summaries (all-zero summaries would make this test vacuous).
        assert any(
            run.result.summary()["corrected_reads"] > 0
            or run.result.summary()["read_retries"] > 0
            for run in serial.runs
        )

    def test_parallel_result_preserves_thread_stats(self):
        results = SweepExecutor(workers=2).map(
            [
                RunSpec(config=small_config(seed=seed), workload=mixed_workload,
                        index=index, label=seed)
                for index, seed in enumerate([21, 22])
            ]
        )
        for result in results:
            assert "mix" in result.thread_stats
            assert result.thread_stats["mix"].completed_ios > 0


class TestRunSpec:
    def test_execute_matches_template_run(self):
        config = small_config()
        config.controller.gc_greediness = 2
        direct = RunSpec(config=config.copy(), workload=small_write_workload).execute()
        template = _greediness_template(small_config())
        swept = template.run(workers=1)
        assert direct.summary() == swept.runs[1].result.summary()

    def test_max_time_limit_is_honoured(self):
        result = RunSpec(
            config=small_config(),
            workload=small_write_workload,
            max_time_ns=1_000_000,
        ).execute()
        assert result.elapsed_ns == 1_000_000


class TestWorkerResolution:
    """``workers="auto"`` sizes the pool from the CPU count; ordering
    guarantees are unchanged (spec order, bit-identical results)."""

    def test_auto_and_none_resolve_to_cpu_count(self):
        from repro.core.parallel import resolve_workers

        assert resolve_workers("auto") == default_workers()
        assert resolve_workers(None) == default_workers()
        assert resolve_workers(3) == 3

    def test_invalid_workers_rejected(self):
        from repro.core.parallel import resolve_workers

        with pytest.raises(ValueError):
            resolve_workers("many")
        with pytest.raises(ValueError):
            resolve_workers(0)
        with pytest.raises(TypeError):
            resolve_workers(True)
        with pytest.raises(TypeError):
            resolve_workers(2.0)

    def test_template_run_accepts_auto(self):
        auto = _greediness_template(small_config()).run(workers="auto")
        serial = _greediness_template(small_config()).run(workers=1)
        for a, s in zip(auto.runs, serial.runs):
            assert a.result.summary() == s.result.summary()

    def test_executor_accepts_auto(self):
        executor = SweepExecutor(workers="auto")
        assert executor.workers == default_workers()
