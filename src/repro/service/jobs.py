"""The long-lived experiment service: submit / status / results / cancel.

EagleTree's headline artifact is a live demo -- pick parameters, run,
watch the metrics move (paper Figure 2).  :class:`ExperimentService` is
the server-side version of that loop: experiments are *submitted* to a
long-lived object instead of scripted around the simulator, a background
worker drains the job queue through the hardened
:class:`~repro.core.parallel.SweepExecutor`, and every completed cell is
persisted to the content-addressed :class:`~repro.service.cache.
ResultCache` so repeated cells -- across jobs, processes and days -- are
served from disk.

::

    service = ExperimentService(cache=ResultCache(tmp), workers="auto")
    job_id = service.submit(grid)           # or a list[RunSpec]
    service.status(job_id)                  # queued/running/done + progress
    results = service.results(job_id)       # blocks until done, spec order
    service.cancel(job_id)                  # queued: dropped; running: stops
                                            # at the next cell boundary
    service.resume(job_id)                  # after a kill: re-run the job's
                                            # specs against the cache

A job is resumable when the cache holds its manifest (every cell is
cacheable): the cache stores each cell durably before ``progress`` sees
it, so a process killed at any instant loses at most the cell in flight,
and a resumed job serves every finished cell as an ordinary cache hit.

Everything observable is a *snapshot*: :meth:`status` returns plain
dataclasses copied under the service lock, so dashboards may poll from
any thread while the worker mutates freely.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

from repro.core.experiments import GridExperiment
from repro.core.parallel import (
    RunSpec,
    SweepExecutor,
    SweepRunError,
    WorkerCount,
)
from repro.core.simulation import SimulationResult
from repro.service.cache import CachedResult, CacheIntegrityError, ResultCache
from repro.service.grids import specs_from_manifest

__all__ = [
    "CellState",
    "CellStatus",
    "ExperimentService",
    "JobFailedError",
    "JobState",
    "JobStatus",
    "ResumeMismatchError",
    "UnknownJobError",
]

#: What may be submitted: prepared specs or a whole experiment object.
Submittable = Union[Sequence[RunSpec], GridExperiment]


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    #: Stopped at a cell boundary by a signal or service shutdown; the
    #: cache holds every completed cell and the job is resumable.
    INTERRUPTED = "interrupted"

    @property
    def terminal(self) -> bool:
        return self in (
            JobState.DONE,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.INTERRUPTED,
        )


class CellState(enum.Enum):
    PENDING = "pending"
    #: Completed and served from the result cache (no simulation ran).
    CACHED = "cached"
    #: Completed by running the simulation.
    COMPUTED = "computed"
    FAILED = "failed"
    SKIPPED = "skipped"


class UnknownJobError(KeyError):
    """No job with that id was ever submitted to this service."""


class ResumeMismatchError(RuntimeError):
    """``resume`` refused: the job's manifest is missing or corrupt, was
    written under other code, or lists other cells than the specs."""


class JobFailedError(RuntimeError):
    """``results()`` was asked for a job that did not complete.

    ``partial_results`` maps spec position -> result for every cell that
    did finish before the failure or cancellation.
    """

    def __init__(self, job_id: str, state: "JobState", error: Optional[str],
                 partial_results: dict[int, object]) -> None:
        self.job_id = job_id
        self.state = state
        self.error = error
        self.partial_results = partial_results
        detail = f": {error}" if error else ""
        super().__init__(
            f"job {job_id} is {state.value} with "
            f"{len(partial_results)} completed cells{detail}"
        )


@dataclass
class CellStatus:
    """Progress snapshot of one grid cell."""

    index: int
    label: str
    state: CellState = CellState.PENDING
    #: Metric summary, present once the cell completed.
    summary: Optional[dict[str, float]] = None


@dataclass
class JobStatus:
    """Immutable snapshot of one job, safe to render from any thread."""

    job_id: str
    name: str
    state: JobState
    total_cells: int
    completed_cells: int
    cache_hits: int
    cache_misses: int
    error: Optional[str]
    #: Wall-clock seconds: queued -> now while live, queued -> finish after.
    elapsed_s: float
    #: Human-readable lifecycle log, oldest first: submitted, started,
    #: interrupted, resumed, ...
    events: list[str] = field(default_factory=list)
    cells: list[CellStatus] = field(default_factory=list)

    @property
    def done_fraction(self) -> float:
        if not self.total_cells:
            return 1.0
        return self.completed_cells / self.total_cells


class _Cancelled(Exception):
    """Internal: unwinds the executor when a running job is cancelled."""


class _Interrupted(Exception):
    """Internal: unwinds the executor at the next cell boundary when the
    service is asked to stop (signal / shutdown).  Unlike cancellation
    the job stays resumable: completed cells are in the cache."""


#: Keep at most this many lifecycle events per job (oldest dropped).
_MAX_EVENTS = 50


class _Job:
    """Service-internal mutable job record (guarded by the service lock)."""

    def __init__(self, job_id: str, name: str, specs: list[RunSpec]) -> None:
        self.id = job_id
        self.name = name
        self.specs = specs
        self.state = JobState.QUEUED
        self.cells = [
            CellStatus(index=position, label=str(spec.label))
            for position, spec in enumerate(specs)
        ]
        self.results: dict[int, object] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.error: Optional[str] = None
        self.cancel_requested = False
        self.interrupt_requested = False
        self.submitted_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self.done = threading.Event()
        self.events: list[str] = []

    def log(self, message: str) -> None:
        # Called under the service lock.
        stamp = time.monotonic() - self.submitted_at
        self.events.append(f"[{stamp:+8.2f}s] {message}")
        del self.events[:-_MAX_EVENTS]


class ExperimentService:
    """A long-lived runner absorbing continuous experiment traffic.

    One background thread drains the queue (jobs run one at a time;
    *within* a job, cells fan out over ``workers`` processes).  All
    jobs share this service's :class:`ResultCache` and executor
    hardening parameters (per-run ``timeout`` in seconds, bounded
    ``retries`` -- see :class:`~repro.core.parallel.SweepExecutor`).

    ``cache=None`` disables result reuse; a string/``Path`` roots a
    :class:`ResultCache` there; a ready cache object is used as-is.
    The service is a context manager: leaving the ``with`` block shuts
    the worker down after the queue drains; leaving it on
    ``KeyboardInterrupt`` interrupts live jobs instead (they become
    ``INTERRUPTED`` and, when a manifest was written, resumable).

    With a cache, every submitted job whose cells are all cacheable
    gets a manifest (:meth:`ResultCache.write_job`), and :meth:`resume`
    finishes an interrupted or SIGKILLed job bit-identically, serving
    every finished cell from the cache.  ``stall_timeout`` arms the
    executor's heartbeat supervision (a run whose event counter freezes
    that long is killed as *hung*, distinct from a merely slow
    straggler).
    """

    def __init__(
        self,
        cache: "ResultCache | str | None" = None,
        *,
        workers: WorkerCount = 1,
        timeout: Optional[float] = None,
        retries: int = 0,
        stall_timeout: Optional[float] = None,
    ) -> None:
        if cache is None or isinstance(cache, ResultCache):
            self.cache = cache
        else:
            self.cache = ResultCache(cache)
        self._executor = SweepExecutor(
            workers=workers,
            timeout=timeout,
            retries=retries,
            stall_timeout=stall_timeout,
        )
        self._jobs: dict[str, _Job] = {}
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._worker: Optional[threading.Thread] = None
        self._shutdown = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(
        self,
        work: Submittable,
        name: Optional[str] = None,
        *,
        grid: Optional[dict] = None,
    ) -> str:
        """Enqueue an experiment; returns its job id immediately.

        ``work`` is a prepared ``list[RunSpec]`` or a
        :class:`GridExperiment` (its ``specs()`` materialise the cells).  ``grid`` (a
        :func:`~repro.service.grids.grid_manifest` dict) is stored in
        the job manifest so a fresh process can rebuild the specs and
        :meth:`resume` by job id alone.
        """
        specs, derived_name = self._coerce(work)
        if not specs:
            raise ValueError("cannot submit an empty experiment")
        with self._lock:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            # Ids restart at 1 per service instance, but manifests
            # persist across processes -- never overwrite one that an
            # earlier (possibly killed) process left behind.
            while True:
                job_id = f"job-{next(self._ids):04d}"
                if self.cache is None or not self.cache.job_path(job_id).exists():
                    break
            job = _Job(job_id, name or derived_name, specs)
            job.log(f"submitted ({len(specs)} cells)")
            if self.cache is not None:
                keys = [self.cache.key_for(spec) for spec in specs]
                if None in keys:
                    job.log("not resumable: a cell's workload is uncacheable")
                else:
                    self.cache.write_job(job_id, job.name, keys, grid=grid)
                    job.log(f"manifest {self.cache.job_path(job_id).name}")
            self._jobs[job_id] = job
            self._ensure_worker()
        self._queue.put(job)
        return job_id

    def resume(self, job_id: str, work: Optional[Submittable] = None) -> str:
        """Re-enqueue an interrupted (or SIGKILLed) job from its manifest.

        The job's specs run against the cache: every cell that finished
        before the interruption is a cache hit (zero re-runs, byte
        identical summaries) and only the missing cells execute.
        ``work`` may supply the spec list explicitly; without it the
        specs are rebuilt from the grid recorded at submit time.  Raises
        :class:`ResumeMismatchError` when the manifest is missing or
        corrupt, was written under another code fingerprint, or lists
        other cells than the specs.
        """
        if self.cache is None:
            raise RuntimeError("resume needs the result cache (service has cache=None)")
        try:
            manifest = self.cache.read_job(job_id)
        except CacheIntegrityError as error:
            raise ResumeMismatchError(f"cannot resume {job_id}: {error}") from None
        if manifest["fingerprint"] != self.cache.fingerprint:
            raise ResumeMismatchError(
                f"job {job_id} was submitted under fingerprint "
                f"{manifest['fingerprint'][:12]}..., current is "
                f"{self.cache.fingerprint[:12]}... -- results would not be "
                "comparable; rerun instead of resuming"
            )
        if work is not None:
            specs, _ = self._coerce(work)
        elif manifest["grid"] is not None:
            specs = specs_from_manifest(manifest["grid"])
        else:
            raise ResumeMismatchError(
                f"job {job_id} recorded no grid; pass the specs explicitly "
                "to resume(job_id, work=...)"
            )
        if [self.cache.key_for(spec) for spec in specs] != manifest["keys"]:
            raise ResumeMismatchError(
                f"job {job_id} was submitted with a different grid "
                "(cell identities do not match)"
            )
        with self._lock:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            existing = self._jobs.get(job_id)
            if existing is not None and not existing.state.terminal:
                raise RuntimeError(f"job {job_id} is still {existing.state.value}")
            job = _Job(job_id, str(manifest["name"]), specs)
            job.log(f"resumed from manifest ({len(specs)} cells)")
            self._jobs[job_id] = job
            self._ensure_worker()
        self._queue.put(job)
        return job_id

    def status(self, job_id: str) -> JobStatus:
        """A point-in-time snapshot of the job's progress."""
        job = self._get(job_id)
        with self._lock:
            finished = job.finished_at
            elapsed = (finished if finished is not None else time.monotonic())
            return JobStatus(
                job_id=job.id,
                name=job.name,
                state=job.state,
                total_cells=len(job.specs),
                completed_cells=len(job.results),
                cache_hits=job.cache_hits,
                cache_misses=job.cache_misses,
                error=job.error,
                elapsed_s=elapsed - job.submitted_at,
                events=list(job.events),
                cells=[
                    CellStatus(
                        index=cell.index,
                        label=cell.label,
                        state=cell.state,
                        summary=dict(cell.summary) if cell.summary else None,
                    )
                    for cell in job.cells
                ],
            )

    def wait(self, job_id: str, timeout: Optional[float] = None) -> JobStatus:
        """Block until the job reaches a terminal state (or ``timeout``
        seconds pass); returns the final (or current) status."""
        job = self._get(job_id)
        job.done.wait(timeout)
        return self.status(job_id)

    def results(
        self, job_id: str, wait: bool = True, timeout: Optional[float] = None
    ) -> list[object]:
        """The job's results in spec order (blocking by default).

        Cache hits come back as :class:`CachedResult`, computed cells as
        full :class:`~repro.core.simulation.SimulationResult` -- both
        with bit-identical ``summary()``.  A job that failed or was
        cancelled raises :class:`JobFailedError` carrying the cells that
        did complete.
        """
        job = self._get(job_id)
        if wait:
            if not job.done.wait(timeout):
                raise TimeoutError(f"job {job_id} still {job.state.value}")
        with self._lock:
            if job.state is not JobState.DONE:
                raise JobFailedError(
                    job.id, job.state, job.error, dict(job.results)
                )
            return [job.results[position] for position in range(len(job.specs))]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True unless the job already finished.

        A queued job never starts; a running job stops at the next cell
        boundary (the in-flight cell completes and is cached).
        """
        job = self._get(job_id)
        with self._lock:
            if job.state.terminal:
                return False
            job.cancel_requested = True
            if job.state is JobState.QUEUED:
                self._finish(job, JobState.CANCELLED)
        return True

    def cache_stats(self) -> dict[str, object]:
        """The shared cache's :meth:`~ResultCache.stats` report (empty
        when the service runs uncached)."""
        if self.cache is None:
            return {"enabled": False}
        report = self.cache.stats()
        report["enabled"] = True
        return report

    def interrupt(self, wait: bool = True) -> None:
        """Stop the service *now*, leaving live jobs resumable.

        Queued jobs flip straight to ``INTERRUPTED``; the running job
        stops at its next cell boundary (the in-flight cell completes,
        is cached, then the job goes ``INTERRUPTED``).  This
        is what the CLI's SIGINT/SIGTERM handlers call -- no job is
        ever left claiming to be ``RUNNING`` by a dead process.
        """
        with self._lock:
            self._shutdown = True
            worker = self._worker
            for job in self._jobs.values():
                if job.state is JobState.QUEUED:
                    job.log("interrupted while queued")
                    self._finish(job, JobState.INTERRUPTED)
                elif job.state is JobState.RUNNING:
                    job.interrupt_requested = True
        self._queue.put(None)
        if wait and worker is not None:
            worker.join()
            self._sweep_stranded()

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting jobs; optionally wait for the queue to drain.

        After the worker exits, any job still claiming a live state
        (a worker that died mid-job, a queue abandoned with
        ``wait=False`` in an earlier call) is swept to ``INTERRUPTED``
        so dashboards never show phantom live jobs.
        """
        with self._lock:
            already = self._shutdown
            self._shutdown = True
            worker = self._worker
        if not already:
            self._queue.put(None)
        if wait:
            # Outside the lock: the worker needs it to finish its job,
            # and _sweep_stranded re-acquires it.
            if worker is not None and worker.is_alive():
                worker.join()
            self._sweep_stranded()

    def _sweep_stranded(self) -> None:
        """Flip any job the (now stopped) worker left non-terminal to
        ``INTERRUPTED`` -- there is no process left to finish it."""
        with self._lock:
            for job in self._jobs.values():
                if not job.state.terminal:
                    job.log("stranded at shutdown")
                    self._finish(job, JobState.INTERRUPTED)

    def __enter__(self) -> "ExperimentService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        if exc_info and isinstance(exc_info[1], KeyboardInterrupt):
            self.interrupt(wait=True)
        else:
            self.shutdown(wait=True)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _coerce(self, work: Submittable) -> tuple[list[RunSpec], str]:
        if isinstance(work, GridExperiment):
            return work.specs(), work.name
        specs = list(work)
        for spec in specs:
            if not isinstance(spec, RunSpec):
                raise TypeError(f"expected RunSpec, got {type(spec).__name__}")
        return specs, f"{len(specs)}-cell experiment"

    def _get(self, job_id: str) -> _Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(job_id) from None

    def _ensure_worker(self) -> None:
        # Called under the lock.  The worker is a daemon so an exiting
        # interpreter is never held hostage by a forgotten service.
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._drain, name="experiment-service", daemon=True
            )
            self._worker.start()

    def _drain(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                break
            if job.state is not JobState.QUEUED:
                continue  # cancelled while queued
            self._run_job(job)

    def _run_job(self, job: _Job) -> None:
        with self._lock:
            if job.cancel_requested:
                self._finish(job, JobState.CANCELLED)
                return
            if job.interrupt_requested or job.state.terminal:
                return  # interrupted while queued (already terminal)
            job.state = JobState.RUNNING
            job.log("started")

        def progress(spec: RunSpec, result: SimulationResult) -> None:
            position = len(job.results)  # delivery is strictly spec order
            with self._lock:
                job.results[position] = result
                cell = job.cells[position]
                if isinstance(result, CachedResult):
                    cell.state = CellState.CACHED
                    job.cache_hits += 1
                else:
                    cell.state = CellState.COMPUTED
                    job.cache_misses += 1
                cell.summary = result.summary()
                cancelled = job.cancel_requested
                interrupted = job.interrupt_requested
            if cancelled:
                raise _Cancelled()
            if interrupted:
                raise _Interrupted()

        try:
            list(self._executor.imap(job.specs, progress=progress, cache=self.cache))
        except _Cancelled:
            with self._lock:
                for cell in job.cells:
                    if cell.state is CellState.PENDING:
                        cell.state = CellState.SKIPPED
                job.log("cancelled")
                self._finish(job, JobState.CANCELLED)
            return
        except _Interrupted:
            # Pending cells stay PENDING: they are not abandoned, they
            # are waiting for resume().
            with self._lock:
                job.log(
                    f"interrupted at cell boundary "
                    f"({len(job.results)}/{len(job.specs)} complete)"
                )
                self._finish(job, JobState.INTERRUPTED)
            return
        except SweepRunError as error:
            with self._lock:
                job.error = str(error)
                for cell in job.cells:
                    if cell.index == error.index:
                        cell.state = CellState.FAILED
                    elif cell.state is CellState.PENDING:
                        cell.state = CellState.SKIPPED
                job.log(f"failed: {error}")
                self._finish(job, JobState.FAILED)
            return
        except Exception as error:  # defensive: never kill the drain loop
            with self._lock:
                job.error = f"{type(error).__name__}: {error}"
                job.log(f"failed: {job.error}")
                self._finish(job, JobState.FAILED)
            return
        with self._lock:
            self._finish(job, JobState.DONE)

    def _finish(self, job: _Job, state: JobState) -> None:
        # Called under the lock.
        job.state = state
        job.finished_at = time.monotonic()
        job.done.set()


def run_to_completion(
    service: ExperimentService,
    work: Submittable,
    name: Optional[str] = None,
    on_progress: Optional[Callable[[JobStatus], None]] = None,
    poll_s: float = 0.1,
) -> tuple[JobStatus, list[object]]:
    """Convenience synchronous driver: submit, poll, return results.

    ``on_progress`` (if given) receives a fresh :class:`JobStatus`
    every ``poll_s`` seconds -- the loop the terminal dashboard runs.
    """
    job_id = service.submit(work, name=name)
    while True:
        status = service.status(job_id)
        if on_progress is not None:
            on_progress(status)
        if status.state.terminal:
            break
        time.sleep(poll_s)
    return status, service.results(job_id)
