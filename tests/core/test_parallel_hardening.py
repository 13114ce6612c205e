"""Tests for the hardened sweep executor (timeout / retry / partial
results).

The contract: a sweep survives a crashed worker process and a hung run
-- retrying within budget, recycling the pool -- and when the budget is
exhausted the :class:`SweepRunError` hands back every run that *did*
finish, so a week-long design-space exploration never loses completed
work to one bad grid cell.
"""

import contextlib
import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import RunSpec, SweepExecutor, SweepRunError, small_config
from repro.core import parallel
from repro.workloads import RandomWriterThread

FAST_BACKOFF = 0.01


@pytest.fixture(autouse=True)
def fast_backoff(monkeypatch):
    monkeypatch.setattr(parallel, "RETRY_BACKOFF", FAST_BACKOFF)


def tiny_workload(config):
    """Module-level factory: picklable by every start method."""
    return [RandomWriterThread("writer", count=50, depth=8)]


def crash_once_workload(config, sentinel=None):
    """Hard-kill the worker process on first execution, succeed after.

    ``os._exit`` (not an exception) models a real worker crash: the
    parent sees a :class:`BrokenProcessPool`, never a traceback.
    """
    if not os.path.exists(sentinel):
        with open(sentinel, "w") as handle:
            handle.write("crashed")
        os._exit(1)
    return tiny_workload(config)


def crash_always_workload(config, delay=0.0):
    if delay:
        time.sleep(delay)
    os._exit(1)


def hang_workload(config, seconds=30.0):
    time.sleep(seconds)
    return []


def marked_hang_workload(config, marker_dir=None):
    """Announce the worker by a file named after its pid, then hang."""
    Path(marker_dir, str(os.getpid())).touch()
    time.sleep(120.0)
    return []


def raise_always_workload(config):
    raise RuntimeError("deterministic failure")


def slow_but_alive_workload(config, ios=20_000):
    """A straggler: takes a while, but its event counter never stops."""
    return [RandomWriterThread("writer", count=ios, depth=8)]


def fail_n_times_workload(config, sentinel=None, failures=1):
    """Raise (cleanly) until ``failures`` attempts have happened."""
    attempts = 0
    if os.path.exists(sentinel):
        with open(sentinel) as handle:
            attempts = int(handle.read())
    with open(sentinel, "w") as handle:
        handle.write(str(attempts + 1))
    if attempts < failures:
        raise RuntimeError(f"transient failure #{attempts + 1}")
    return tiny_workload(config)


class TestConstructor:
    def test_defaults_are_backward_compatible(self):
        executor = SweepExecutor(workers=2)
        assert executor.timeout is None
        assert executor.retries == 0

    def test_rejects_bad_hardening_parameters(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=2, timeout=0)
        with pytest.raises(ValueError):
            SweepExecutor(workers=2, timeout=-1.0)
        with pytest.raises(ValueError):
            SweepExecutor(workers=2, retries=-1)


class TestWorkerCrashRetry:
    def test_sweep_survives_a_crashing_worker(self, tmp_path):
        """A worker killed mid-run (BrokenProcessPool) is retried in a
        fresh pool and the sweep completes with full results."""
        sentinel = str(tmp_path / "crashed-once")
        specs = [
            RunSpec(
                config=small_config(seed=1),
                workload=functools.partial(crash_once_workload, sentinel=sentinel),
                index=0,
                label="crashy",
            ),
            RunSpec(
                config=small_config(seed=2),
                workload=tiny_workload,
                index=1,
                label="healthy",
            ),
        ]
        results = SweepExecutor(workers=2, retries=2).map(specs)
        assert [r.config.seed for r in results] == [1, 2]
        assert all(not r.incomplete for r in results)

    def test_exhausted_retries_carry_partial_results(self):
        """When the crashing run burns its whole budget, the error hands
        back the runs that finished before the abort."""
        specs = [
            RunSpec(
                config=small_config(seed=7),
                workload=tiny_workload,
                index=0,
                label="healthy",
            ),
            RunSpec(
                config=small_config(seed=8),
                # The delay lets the healthy run finish first, so it is
                # deterministically salvageable when the pool breaks.
                workload=functools.partial(crash_always_workload, delay=2.0),
                index=1,
                label="doomed",
            ),
        ]
        with pytest.raises(SweepRunError) as excinfo:
            SweepExecutor(workers=2, retries=0).map(specs)
        error = excinfo.value
        assert error.index == 1
        assert error.label == "doomed"
        assert 0 in error.partial_results
        assert error.partial_results[0].config.seed == 7
        assert "salvaged" in str(error)

    def test_serial_retry_recovers_from_transient_failure(self, tmp_path):
        sentinel = str(tmp_path / "attempts")
        specs = [
            RunSpec(
                config=small_config(seed=3),
                workload=functools.partial(
                    fail_n_times_workload, sentinel=sentinel, failures=2
                ),
                index=0,
                label="flaky",
            )
        ]
        results = SweepExecutor(workers=1, retries=2).map(specs)
        assert len(results) == 1
        assert not results[0].incomplete

    def test_serial_retry_budget_exhaustion_names_the_run(self, tmp_path):
        sentinel = str(tmp_path / "attempts")
        specs = [
            RunSpec(
                config=small_config(seed=4),
                workload=functools.partial(
                    fail_n_times_workload, sentinel=sentinel, failures=5
                ),
                index=0,
                label="hopeless",
            )
        ]
        with pytest.raises(SweepRunError, match="hopeless"):
            SweepExecutor(workers=1, retries=1).map(specs)


class TestTimeout:
    def test_hung_run_times_out_instead_of_wedging(self):
        """A run that never returns is killed at the wall-clock limit
        and reported as a TimeoutError-caused SweepRunError."""
        specs = [
            RunSpec(
                config=small_config(seed=5),
                workload=tiny_workload,
                index=0,
                label="healthy",
            ),
            RunSpec(
                config=small_config(seed=6),
                workload=functools.partial(hang_workload, seconds=30.0),
                index=1,
                label="hung",
            ),
        ]
        started = time.monotonic()
        with pytest.raises(SweepRunError) as excinfo:
            SweepExecutor(workers=2, timeout=2.0, retries=0).map(specs)
        elapsed = time.monotonic() - started
        assert elapsed < 20.0, "the sweep must not wait out the hung worker"
        assert excinfo.value.index == 1
        assert isinstance(excinfo.value.cause, TimeoutError)
        assert 0 in excinfo.value.partial_results

    def test_fast_runs_are_untouched_by_the_timeout(self):
        specs = [
            RunSpec(
                config=small_config(seed=seed),
                workload=tiny_workload,
                index=index,
                label=seed,
            )
            for index, seed in enumerate([11, 12, 13])
        ]
        results = SweepExecutor(workers=2, timeout=120.0, retries=1).map(specs)
        assert [r.config.seed for r in results] == [11, 12, 13]


class TestRetryBudgetMidGrid:
    """``partial_results`` when the budget dies in the *middle* of a
    grid: everything completed before the abort is salvaged, cells after
    the failing one are never silently dropped as 'done'."""

    def test_serial_exhaustion_mid_grid_salvages_the_prefix(self):
        specs = [
            RunSpec(config=small_config(seed=31), workload=tiny_workload,
                    index=0, label="first"),
            RunSpec(config=small_config(seed=32), workload=raise_always_workload,
                    index=1, label="doomed"),
            RunSpec(config=small_config(seed=33), workload=tiny_workload,
                    index=2, label="never-reached"),
        ]
        with pytest.raises(SweepRunError) as excinfo:
            SweepExecutor(workers=1, retries=2).map(specs)
        error = excinfo.value
        assert error.index == 1
        assert set(error.partial_results) == {0}
        assert error.partial_results[0].config.seed == 31

    def test_hardened_exhaustion_mid_grid_salvages_completed_cells(self):
        """With real retries (budget > 0) the failing cell is re-run in
        fresh passes; when it finally gives up, every healthy cell --
        before *and* after it in spec order -- is in partial_results."""
        specs = [
            RunSpec(config=small_config(seed=41), workload=tiny_workload,
                    index=0, label="healthy-a"),
            RunSpec(config=small_config(seed=42), workload=raise_always_workload,
                    index=1, label="doomed"),
            RunSpec(config=small_config(seed=43), workload=tiny_workload,
                    index=2, label="healthy-b"),
        ]
        with pytest.raises(SweepRunError) as excinfo:
            SweepExecutor(workers=2, retries=1).map(specs)
        error = excinfo.value
        assert error.index == 1
        assert set(error.partial_results) == {0, 2}
        assert "salvaged" in str(error)


class TestSupervision:
    """Heartbeat supervision: a *hung* run (frozen event counter) is
    killed after ``stall_timeout``; a *straggler* (slow but advancing)
    is left alone."""

    def test_rejects_bad_supervision_parameters(self):
        with pytest.raises(ValueError):
            SweepExecutor(workers=2, stall_timeout=0)
        with pytest.raises(ValueError):
            SweepExecutor(workers=2, stall_timeout=-1.0)

    def test_hung_run_is_killed_long_before_the_wall_clock(self):
        from repro.core.parallel import WorkerStalledError

        specs = [
            RunSpec(config=small_config(seed=51), workload=tiny_workload,
                    index=0, label="healthy"),
            RunSpec(
                config=small_config(seed=52),
                workload=functools.partial(hang_workload, seconds=120.0),
                index=1,
                label="frozen",
            ),
        ]
        started = time.monotonic()
        with pytest.raises(SweepRunError) as excinfo:
            SweepExecutor(
                workers=2,
                timeout=300.0,  # generous: supervision must fire first
                stall_timeout=1.0,
                retries=0,
            ).map(specs)
        elapsed = time.monotonic() - started
        assert elapsed < 60.0, "stall detection must not wait out the hang"
        error = excinfo.value
        assert error.index == 1
        assert isinstance(error.cause, WorkerStalledError)
        assert "no progress" in str(error.cause)
        assert 0 in error.partial_results

    def test_straggler_with_advancing_heartbeat_completes(self):
        """A run much slower than stall_timeout but still advancing its
        event counter must never be treated as hung."""
        specs = [
            RunSpec(
                config=small_config(seed=seed),
                workload=functools.partial(slow_but_alive_workload, ios=20_000),
                index=index,
                label=seed,
            )
            for index, seed in enumerate([61, 62])
        ]
        results = SweepExecutor(
            workers=2,
            stall_timeout=0.75,
            retries=0,
        ).map(specs)
        assert [r.config.seed for r in results] == [61, 62]
        assert all(not r.incomplete for r in results)


ORPHAN_CHILD = """
import functools, sys
from repro import RunSpec, SweepExecutor, small_config
from tests.core.test_parallel_hardening import marked_hang_workload

workload = functools.partial(marked_hang_workload, marker_dir=sys.argv[1])
specs = [
    RunSpec(config=small_config(seed=seed), workload=workload, index=index, label=seed)
    for index, seed in enumerate([1, 2])
]
SweepExecutor(workers=2).map(specs)
"""


def test_pool_workers_exit_with_a_sigkilled_sweep(tmp_path):
    """SIGKILL only the process driving a ``workers=2`` sweep: its pool
    workers, busy in a run, must leave its session within 10 s."""
    root = Path(__file__).parents[2]
    markers = tmp_path / "workers"
    markers.mkdir()
    with open(tmp_path / "stderr.txt", "w+") as stderr:
        child = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_CHILD, str(markers)],
            stderr=stderr,
            env={**os.environ, "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)])},
            start_new_session=True,
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(list(markers.iterdir())) < 2:
                if child.poll() is not None:
                    stderr.seek(0)
                    pytest.fail("sweep exited before both workers ran:\n" + stderr.read())
                if time.monotonic() > deadline:
                    pytest.fail("both workers did not start within 60 s")
                time.sleep(0.05)
            os.kill(child.pid, signal.SIGKILL)
            child.wait(timeout=10)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.killpg(child.pid, 0)
                except ProcessLookupError:
                    return
                time.sleep(0.1)
            pytest.fail("pool workers outlived the SIGKILLed sweep by 10 s")
        finally:
            with contextlib.suppress(ProcessLookupError):  # group already gone
                os.killpg(child.pid, signal.SIGKILL)
            child.wait(timeout=10)
