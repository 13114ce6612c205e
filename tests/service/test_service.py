"""Tests for the async experiment service (repro.service.jobs).

The contract: a submitted job runs to completion in the background and
returns results in spec order; resubmitting equivalent work is served
entirely from the cache with bit-identical summaries; a failure or
cancellation surfaces precisely (which cell, what survived) instead of
hanging or vanishing; an interrupted job resumes against the cache,
re-running only the cells the cache lacks, and refuses to resume into
different code or a different grid.
"""

import functools
import json

import pytest

from repro import (
    GridExperiment,
    Parameter,
    RunSpec,
    small_config,
)
from repro.core.statistics import serialize_summary
from repro.service import (
    CachedResult,
    CellState,
    ExperimentService,
    JobFailedError,
    JobState,
    ResultCache,
    ResumeMismatchError,
    UnknownJobError,
    run_to_completion,
)
from repro.service.grids import (
    grid_manifest,
    grid_specs,
    mixed_workload,
    specs_from_manifest,
)

IOS = 150
SMALL_AXES = [("controller.gc_greediness", [1, 2]), ("host.max_outstanding", [4, 8])]


def failing_workload(config):
    raise RuntimeError("boom in workload factory")


def gated_workload(config, gate, ios=IOS):
    """``mixed_workload`` that first waits until the file ``gate``
    exists: a slow cell whose end the test decides."""
    import os
    import time

    while not os.path.exists(gate):
        time.sleep(0.01)
    return mixed_workload(config, ios=ios)


def small_grid(ios: int = IOS, depths=(4, 8)) -> list:
    return grid_specs(
        [SMALL_AXES[0], ("host.max_outstanding", list(depths))],
        ios=ios,
    )


def greediness_sweep(values) -> GridExperiment:
    """A one-axis grid over GC greediness (an experiment template)."""
    return GridExperiment(
        name="greediness",
        base_config=small_config(),
        parameters=[Parameter("greediness", path="controller.gc_greediness")],
        values=[values],
        workload=functools.partial(mixed_workload, ios=IOS),
    )


def summaries(results) -> list:
    return [serialize_summary(result.summary()) for result in results]


@pytest.fixture
def service(tmp_path):
    with ExperimentService(cache=ResultCache(tmp_path)) as svc:
        yield svc


def test_submit_runs_in_spec_order(service):
    specs = small_grid()
    job_id = service.submit(specs)
    results = service.results(job_id)
    assert len(results) == len(specs)
    status = service.status(job_id)
    assert status.state is JobState.DONE
    assert status.completed_cells == len(specs)
    assert [cell.label for cell in status.cells] == [
        str(spec.label) for spec in specs
    ]
    assert all(cell.state is CellState.COMPUTED for cell in status.cells)


def test_resubmission_is_served_from_cache(service):
    first = service.results(service.submit(small_grid()))
    job_id = service.submit(small_grid())
    second = service.results(job_id)
    status = service.status(job_id)
    assert status.cache_hits == 4 and status.cache_misses == 0
    assert all(isinstance(result, CachedResult) for result in second)
    assert summaries(first) == summaries(second)


def test_perturbation_reruns_exactly_the_changed_cells(service):
    service.results(service.submit(small_grid()))
    job_id = service.submit(small_grid(depths=(4, 16)))  # 8 -> 16: 2 of 4 cells
    service.results(job_id)
    status = service.status(job_id)
    assert status.cache_hits == 2 and status.cache_misses == 2
    states = {cell.label: cell.state for cell in status.cells}
    assert states["(1, 4)"] is CellState.CACHED
    assert states["(2, 4)"] is CellState.CACHED
    assert states["(1, 16)"] is CellState.COMPUTED
    assert states["(2, 16)"] is CellState.COMPUTED


def test_submit_accepts_template_and_grid(service):
    template = greediness_sweep([1, 2])
    results = service.results(service.submit(template))
    assert len(results) == 2

    grid = GridExperiment(
        name="grid",
        base_config=small_config(),
        parameters=[
            Parameter("greediness", path="controller.gc_greediness"),
            Parameter("qd", path="host.max_outstanding"),
        ],
        values=[[1, 2], [4, 8]],
        workload=functools.partial(mixed_workload, ios=IOS),
    )
    job_id = service.submit(grid)
    assert len(service.results(job_id)) == 4
    # The template's greediness=1/2 cells differ from the grid's (the
    # grid also pins max_outstanding), so hits come only from exact
    # content matches.
    assert service.status(job_id).name == "grid"


def test_failure_surfaces_with_partial_results(service):
    specs = small_grid()[:2] + [
        RunSpec(config=small_config(), workload=failing_workload, index=2)
    ]
    job_id = service.submit(specs)
    with pytest.raises(JobFailedError) as excinfo:
        service.results(job_id)
    assert len(excinfo.value.partial_results) == 2
    status = service.status(job_id)
    assert status.state is JobState.FAILED
    assert "boom" in status.error
    assert status.cells[2].state is CellState.FAILED


def test_cancel_before_start(tmp_path):
    with ExperimentService(cache=ResultCache(tmp_path)) as svc:
        blocker = svc.submit(small_grid())
        queued = svc.submit(small_grid(ios=IOS * 2))
        assert svc.cancel(queued) is True
        svc.wait(blocker)
        status = svc.wait(queued)
        assert status.state is JobState.CANCELLED
        with pytest.raises(JobFailedError):
            svc.results(queued)
        assert svc.cancel(queued) is False  # already terminal


def test_unknown_job_id(service):
    with pytest.raises(UnknownJobError):
        service.status("job-9999")


def test_empty_submission_is_rejected(service):
    with pytest.raises(ValueError):
        service.submit([])


def test_uncached_service_still_runs(tmp_path):
    with ExperimentService(cache=None) as svc:
        job_id = svc.submit(small_grid()[:1])
        results = svc.results(job_id)
        assert len(results) == 1
        assert svc.status(job_id).cache_misses == 1
        assert svc.cache_stats() == {"enabled": False}


def test_run_to_completion_drives_the_poll_loop(service):
    seen = []
    status, results = run_to_completion(
        service, small_grid()[:2], on_progress=seen.append, poll_s=0.01
    )
    assert status.state is JobState.DONE
    assert len(results) == 2
    assert seen and seen[-1].state is JobState.DONE


def test_experiment_run_with_cache_path(tmp_path):
    template = greediness_sweep([1, 2])
    cold = template.run(cache=str(tmp_path))
    warm = template.run(cache=str(tmp_path))
    assert summaries(r.result for r in cold.runs) == summaries(
        r.result for r in warm.runs
    )
    assert all(isinstance(r.result, CachedResult) for r in warm.runs)


def test_grid_run_with_cache_object(tmp_path):
    cache = ResultCache(tmp_path)
    grid = GridExperiment(
        name="grid",
        base_config=small_config(),
        parameters=[
            Parameter("greediness", path="controller.gc_greediness"),
            Parameter("qd", path="host.max_outstanding"),
        ],
        values=[[1, 2], [4, 8]],
        workload=functools.partial(mixed_workload, ios=IOS),
    )
    grid.run(cache=cache)
    assert cache.stores == 4
    grid.run(cache=cache)
    assert cache.hits == 4
    assert cache.stores == 4


def test_run_rejects_unknown_cache_types():
    template = greediness_sweep([1])
    with pytest.raises(TypeError):
        template.run(cache=42)


def test_service_accepts_workers_auto(tmp_path):
    with ExperimentService(cache=ResultCache(tmp_path), workers="auto") as svc:
        results = svc.results(svc.submit(small_grid()[:2]))
        assert len(results) == 2


# ----------------------------------------------------------------------
# Interrupt / resume / stranded-job hygiene
# ----------------------------------------------------------------------
def make_service(tmp_path, fingerprint: str = "test-version") -> ExperimentService:
    return ExperimentService(
        cache=ResultCache(tmp_path / "cache", fingerprint=fingerprint)
    )


def test_interrupt_stops_at_cell_boundary_and_resumes(tmp_path):
    import time

    # Cells sized so the interrupt reliably lands before the grid ends.
    grid_ios = IOS * 20

    baseline_service = make_service(tmp_path / "a")
    with baseline_service:
        baseline = summaries(
            baseline_service.results(baseline_service.submit(small_grid(ios=grid_ios)))
        )

    service = make_service(tmp_path / "b")
    job_id = service.submit(small_grid(ios=grid_ios))
    while service.status(job_id).completed_cells < 1:
        time.sleep(0.005)
    service.interrupt(wait=True)
    status = service.status(job_id)
    assert status.state is JobState.INTERRUPTED
    assert 1 <= status.completed_cells
    # Pending cells stay PENDING (awaiting resume), not SKIPPED.
    live = {cell.state for cell in status.cells}
    assert CellState.SKIPPED not in live
    assert any("interrupted" in event for event in status.events)
    with pytest.raises(JobFailedError):
        service.results(job_id, wait=False)

    resumed_service = make_service(tmp_path / "b")
    with resumed_service:
        resumed_id = resumed_service.resume(job_id, work=small_grid(ios=grid_ios))
        results = resumed_service.results(resumed_id)
        final = resumed_service.status(resumed_id)
    assert final.state is JobState.DONE
    # Every cell finished before the interrupt is a cache hit; only the
    # rest ran.
    assert final.cache_hits == status.completed_cells
    assert final.cache_misses == final.total_cells - status.completed_cells
    assert summaries(results) == baseline
    finished = [cell.state for cell in final.cells[: status.completed_cells]]
    assert all(state is CellState.CACHED for state in finished)


def test_interrupt_flushes_queued_jobs(tmp_path):
    service = make_service(tmp_path)
    running = service.submit(small_grid())
    queued = service.submit(small_grid(ios=IOS * 2))
    service.interrupt(wait=True)
    assert service.status(queued).state is JobState.INTERRUPTED
    assert service.status(running).state in (
        JobState.INTERRUPTED,
        JobState.DONE,  # it may have finished before the interrupt landed
    )
    with pytest.raises(RuntimeError):
        service.submit(small_grid())


def test_hardened_pool_streams_cells_while_slow_cells_run(tmp_path):
    # The executor's timeout/retries/stall_timeout flags must not hold
    # results back: a finished cell is cached and reported while later
    # cells still run, so an interrupt stops at the next cell boundary.
    import time

    gate = tmp_path / "gate"
    specs = small_grid()
    for spec in specs[2:]:  # two quick cells, then two slow ones
        spec.workload = functools.partial(gated_workload, gate=str(gate))
    cache = ResultCache(tmp_path / "cache")
    service = ExperimentService(
        cache=cache, workers=2, stall_timeout=30.0, retries=1
    )
    try:
        job_id = service.submit(specs)
        deadline = time.monotonic() + 20.0
        while service.status(job_id).completed_cells < 1:
            assert time.monotonic() < deadline, (
                "no cell was reported while the slow cells ran"
            )
            time.sleep(0.01)
        status = service.status(job_id)
        assert status.state is JobState.RUNNING
        assert cache.path_for(cache.key_for(specs[0])).exists()
        service.interrupt(wait=False)
    finally:
        gate.touch()
    assert service.wait(job_id, timeout=60.0).state is JobState.INTERRUPTED
    service.shutdown(wait=True)
    cached = [spec for spec in specs if cache.path_for(cache.key_for(spec)).exists()]
    assert 1 <= len(cached) < len(specs)


def test_shutdown_after_interrupt_does_not_deadlock(tmp_path):
    # The CLI signal path: the handler calls interrupt(wait=False),
    # then the `with service:` exit calls shutdown(wait=True).  The
    # second call must join and sweep without holding the service lock
    # (a regression here hangs the process after ctrl-C).
    import threading

    service = make_service(tmp_path)
    job_id = service.submit(small_grid())
    service.interrupt(wait=False)
    closer = threading.Thread(target=service.shutdown, kwargs={"wait": True})
    closer.start()
    closer.join(timeout=60.0)
    assert not closer.is_alive(), "shutdown deadlocked after interrupt(wait=False)"
    assert service.status(job_id).state.terminal


def test_shutdown_sweeps_stranded_jobs(tmp_path):
    # White-box: simulate a worker that died mid-job, leaving RUNNING
    # state behind -- shutdown must not let dashboards see it forever.
    service = make_service(tmp_path)
    job_id = service.submit(small_grid()[:1])
    service.wait(job_id)
    stranded = service._jobs[job_id]
    stranded.state = JobState.RUNNING
    stranded.done.clear()
    service.shutdown(wait=True)
    status = service.status(job_id)
    assert status.state is JobState.INTERRUPTED
    assert any("stranded" in event for event in status.events)


def test_resume_rejects_mismatched_grid(tmp_path):
    service = make_service(tmp_path)
    with service:
        job_id = service.submit(small_grid())
        service.wait(job_id)
    other = make_service(tmp_path)
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=small_grid(ios=IOS * 2))  # different cells
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id)  # no grid recorded and no specs given
    other.shutdown()


def test_resume_rejects_a_fingerprint_change(tmp_path):
    with make_service(tmp_path) as service:
        job_id = service.submit(small_grid())
        service.wait(job_id)
    newer = make_service(tmp_path, fingerprint="next-version")
    with pytest.raises(ResumeMismatchError, match="fingerprint"):
        newer.resume(job_id, work=small_grid())
    newer.shutdown()


def test_resume_rejects_a_missing_or_corrupt_manifest(tmp_path):
    with make_service(tmp_path) as service:
        job_id = service.submit(small_grid())
        service.wait(job_id)
    manifest = service.cache.job_path(job_id)
    text = manifest.read_text(encoding="utf-8")
    other = make_service(tmp_path)
    with pytest.raises(ResumeMismatchError):
        other.resume("job-0099", work=small_grid())  # never submitted
    manifest.write_text(text[:-30], encoding="utf-8")  # truncated
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=small_grid())
    tampered = json.loads(text)
    tampered["keys"].reverse()  # stale checksum
    manifest.write_text(json.dumps(tampered), encoding="utf-8")
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=list(reversed(small_grid())))
    other.shutdown()


def test_resume_without_cache_is_an_error(tmp_path):
    with ExperimentService(cache=None) as svc:
        with pytest.raises(RuntimeError):
            svc.resume("job-0001")


def test_uncacheable_job_runs_but_is_not_resumable(tmp_path):
    specs = [
        RunSpec(
            config=small_config(),
            workload=lambda config: mixed_workload(config, ios=IOS),
            label="lambda",
        )
    ]
    with make_service(tmp_path) as service:
        job_id = service.submit(specs)
        assert len(service.results(job_id)) == 1
        status = service.status(job_id)
    assert status.state is JobState.DONE
    assert any("not resumable" in event for event in status.events)
    assert not service.cache.job_path(job_id).exists()
    other = make_service(tmp_path)
    with pytest.raises(ResumeMismatchError):
        other.resume(job_id, work=specs)
    other.shutdown()


def test_resume_reruns_exactly_the_missing_cell(tmp_path):
    with make_service(tmp_path) as service:
        job_id = service.submit(small_grid(), grid=grid_manifest(SMALL_AXES, ios=IOS))
        baseline = summaries(service.results(job_id))
    cache = ResultCache(tmp_path / "cache", fingerprint="test-version")
    assert cache.invalidate(small_grid()[2])

    with ExperimentService(cache=cache) as service:
        service.resume(job_id)  # specs rebuilt from the recorded grid
        results = service.results(job_id)
        status = service.status(job_id)
    assert (status.cache_hits, status.cache_misses) == (3, 1)
    assert [cell.state for cell in status.cells] == [
        CellState.CACHED,
        CellState.CACHED,
        CellState.COMPUTED,
        CellState.CACHED,
    ]
    assert summaries(results) == baseline


def test_submit_never_overwrites_an_existing_manifest(tmp_path):
    first = make_service(tmp_path)
    with first:
        first_id = first.submit(small_grid()[:1])
        first.wait(first_id)
    # A fresh service restarts its id counter; the manifest on disk from
    # the previous "process" must survive.
    second = make_service(tmp_path)
    with second:
        second_id = second.submit(small_grid()[:1])
        second.wait(second_id)
    assert first_id == "job-0001"
    assert second_id == "job-0002"
    assert (tmp_path / "cache" / "jobs" / "job-0001.json").exists()
    assert (tmp_path / "cache" / "jobs" / "job-0002.json").exists()


def test_status_reports_events_and_manifest(tmp_path):
    service = make_service(tmp_path)
    with service:
        job_id = service.submit(small_grid()[:1])
        status = service.wait(job_id)
    assert any("submitted" in event for event in status.events)
    assert any("manifest" in event for event in status.events)


def test_grid_specs_are_the_grid_experiment_specs():
    base = small_config()
    base.seed = 7
    grid = GridExperiment(
        "grid",
        base,
        [Parameter(path, path=path) for path, _ in SMALL_AXES],
        [values for _, values in SMALL_AXES],
        functools.partial(mixed_workload, ios=IOS),
    )
    expected = grid.specs()
    specs = grid_specs(SMALL_AXES, ios=IOS, seed=7)
    assert [spec.label for spec in specs] == [(1, 4), (1, 8), (2, 4), (2, 8)]
    assert [spec.label for spec in specs] == [spec.label for spec in expected]
    assert [spec.canonical() for spec in specs] == [
        spec.canonical() for spec in expected
    ]


def test_grid_manifest_roundtrip():
    manifest = json.loads(json.dumps(grid_manifest(SMALL_AXES, ios=IOS, seed=7)))
    rebuilt = specs_from_manifest(manifest)
    original = grid_specs(SMALL_AXES, ios=IOS, seed=7)
    assert [spec.cache_key("v") for spec in rebuilt] == [
        spec.cache_key("v") for spec in original
    ]
    with pytest.raises(ValueError):
        specs_from_manifest({"kind": "mystery"})
