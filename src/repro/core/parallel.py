"""Parallel sweep execution.

The paper's whole point (Section 2.1) is making design-space
explorations of "hundreds of experiments" tractable.  Every run of a
sweep is an independent simulation -- same code, different
configuration -- so the sweep is embarrassingly parallel across
processes.  This module provides the machinery:

* :class:`RunSpec` -- one picklable unit of work: a fully-prepared
  configuration, a reference to the workload factory, and the time
  limit.  The parameter values have already been applied to the config
  by the experiment template, so workers never see ``Parameter`` objects
  (whose ``setter`` may be an unpicklable lambda).
* :class:`SweepExecutor` -- fans specs out over a
  :class:`concurrent.futures.ProcessPoolExecutor` and reassembles the
  :class:`~repro.core.simulation.SimulationResult` objects in
  deterministic sweep order, regardless of completion order.
  ``workers=1`` (the default) runs every spec in-process, exactly like
  the historical serial path.

Picklability rules (see docs/GUIDE.md "Running sweeps in parallel"):
the workload factory must be an importable module-level callable (or a
``functools.partial`` of one); closures and lambdas only work with
``workers=1``.  A worker failure is surfaced as a :class:`SweepRunError`
naming the failing run -- never as a hung sweep.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Protocol, Sequence, Union

from repro.core.canonical import canonical_value, canonical_workload, content_hash
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation, SimulationResult

#: ``workers`` as accepted by sweeps: a positive int, ``"auto"`` (one
#: worker per CPU) or ``None`` (same as ``"auto"``).
WorkerCount = Union[int, str, None]


class ResultSource(Protocol):
    """What :class:`SweepExecutor` needs from a result cache.

    Implemented by :class:`repro.service.cache.ResultCache`; defined
    here as a protocol so the core never imports the service layer.
    ``lookup`` returns a previously stored result for an equivalent spec
    (or ``None``, including for specs it refuses to key); ``store``
    persists a fresh result (and may decline silently).
    """

    def lookup(self, spec: "RunSpec") -> Optional[SimulationResult]: ...

    def store(self, spec: "RunSpec", result: SimulationResult) -> None: ...


class WorkerStalledError(RuntimeError):
    """A worker stopped making progress: hung, not merely slow.

    Raised by the supervised hardened path when a run's heartbeat --
    the engine's processed-event counter, sampled in the worker and
    piped back to the parent -- froze for ``stall_timeout`` seconds.  A
    *straggler* (slow but still advancing) never trips this; it is
    bounded only by the wall-clock ``timeout``.
    """

    def __init__(self, label: object, stall_timeout: float) -> None:
        self.label = label
        self.stall_timeout = stall_timeout
        super().__init__(
            f"run {label!r} made no progress for {stall_timeout:g}s "
            "(hung, not merely slow)"
        )


class SweepRunError(RuntimeError):
    """One run of a parallel sweep failed (its retry budget included).

    Carries enough context to reproduce the failure serially --
    ``index`` and ``label`` identify the run within the sweep, ``cause``
    is the underlying exception (possibly re-raised from a worker
    process) -- plus ``partial_results``: every run that *did* complete
    before the sweep aborted, keyed by spec index, so hours of finished
    simulations survive one bad grid cell.
    """

    def __init__(
        self,
        index: int,
        label: object,
        cause: BaseException,
        partial_results: Optional[dict[int, SimulationResult]] = None,
    ) -> None:
        self.index = index
        self.label = label
        self.cause = cause
        self.partial_results: dict[int, SimulationResult] = dict(
            partial_results or {}
        )
        salvage = (
            f" ({len(self.partial_results)} completed runs salvaged in"
            " partial_results)"
            if self.partial_results
            else ""
        )
        super().__init__(
            f"sweep run #{index} ({label!r}) failed: "
            f"{type(cause).__name__}: {cause}{salvage}"
        )


@dataclass
class RunSpec:
    """One independent simulation of a sweep, ready to ship to a worker.

    ``config`` already carries the swept parameter values; ``workload``
    is called with the config in the worker to build the threads (so
    thread objects themselves never cross the process boundary).
    """

    config: SimulationConfig
    workload: Callable[[SimulationConfig], object]
    max_time_ns: Optional[int] = None
    #: Position within the sweep; results are reassembled by this index.
    index: int = 0
    #: Human-readable identity (the parameter value / grid cell) used in
    #: error messages and progress callbacks.
    label: object = None

    def build(self) -> Simulation:
        """Materialise this spec's simulation without running it."""
        simulation = Simulation(self.config)
        for entry in self.workload(self.config):
            if isinstance(entry, tuple):
                thread, depends_on = entry
                simulation.add_thread(thread, depends_on=depends_on)
            else:
                simulation.add_thread(entry)
        return simulation

    def execute(self) -> SimulationResult:
        """Run this spec in the current process."""
        return self.build().run(max_time_ns=self.max_time_ns)

    def canonical(self) -> dict[str, object]:
        """The deterministic content description this spec is keyed by.

        Covers everything that determines the simulation's *results*:
        the fully materialised configuration, the workload factory's
        stable identity (with any ``functools.partial`` arguments) and
        the time limit.  ``index`` and ``label`` are bookkeeping --
        where a run sits within a sweep cannot change its numbers -- so
        they are deliberately excluded: the same cell reached from two
        different grids shares one key.  Raises
        :class:`~repro.core.canonical.UncacheableWorkloadError` when the
        workload has no stable identity (lambda/closure/``__main__``).
        """
        return {
            "config": canonical_value(self.config),
            "workload": canonical_workload(self.workload),
            "max_time_ns": self.max_time_ns,
        }

    def cache_key(self, fingerprint: str = "") -> str:
        """SHA-256 content key of this spec under ``fingerprint``.

        ``fingerprint`` is mixed into the hash (the service passes
        :func:`repro.core.canonical.code_fingerprint`), so results
        computed by different simulator versions never collide.
        """
        return content_hash({"fingerprint": fingerprint, "spec": self.canonical()})


#: The sweep progress callback: ``progress(spec, result)``, invoked in
#: spec order as each run's result becomes available.
ProgressCallback = Callable[[RunSpec, SimulationResult], None]


def _execute_spec(spec: RunSpec) -> SimulationResult:
    """Module-level worker entry point (picklable under every start
    method)."""
    return spec.execute()


def _execute_spec_beating(
    spec: RunSpec, beats: Any, interval: float
) -> SimulationResult:
    """Worker entry point that publishes progress heartbeats.

    ``beats`` is a manager-backed mapping shared with the parent.  A
    daemon thread samples the engine's processed-event counter every
    ``interval`` seconds into ``beats[spec.index]``; the parent watches
    for the value to *change*, so a hung run (counter frozen inside one
    event, or stuck building its workload at the ``-1`` sentinel) is
    distinguishable from a straggler (counter advancing) without
    touching the simulation hot path.
    """
    import threading

    beats[spec.index] = -1  # started; still building the simulation
    holder: dict[str, Optional[Simulation]] = {"simulation": None}
    stop = threading.Event()

    def pulse() -> None:
        while not stop.wait(interval):
            simulation = holder["simulation"]
            value = -1 if simulation is None else simulation.sim.processed_events
            try:
                beats[spec.index] = value
            except Exception:  # parent gone; run on unsupervised
                return

    monitor = threading.Thread(target=pulse, name="sweep-heartbeat", daemon=True)
    monitor.start()
    try:
        simulation = spec.build()
        holder["simulation"] = simulation
        return simulation.run(max_time_ns=spec.max_time_ns)
    finally:
        stop.set()
        monitor.join()


def default_workers() -> int:
    """A sensible worker count for "use all cores": the CPU count."""
    return os.cpu_count() or 1


def resolve_workers(workers: WorkerCount) -> int:
    """Normalise a ``workers`` argument to a concrete positive count.

    ``"auto"`` (or ``None``) selects :func:`default_workers` -- one
    worker per CPU, which the executor further caps at the number of
    specs.  On a single-CPU box ``"auto"`` therefore resolves to 1 and
    takes the exact historical serial path (fan-out only pays off with
    real cores).  Sweep *ordering* is unaffected either way: results
    always come back in spec order.
    """
    if workers is None:
        return default_workers()
    if isinstance(workers, str):
        if workers == "auto":
            return default_workers()
        raise ValueError(f"workers must be a positive int or 'auto' (got {workers!r})")
    if isinstance(workers, bool) or not isinstance(workers, int):
        raise TypeError(f"workers must be a positive int or 'auto' (got {workers!r})")
    if workers < 1:
        raise ValueError(f"workers must be >= 1 (got {workers})")
    return workers


class SweepExecutor:
    """Runs the independent simulations of a sweep, serially or across a
    process pool.

    ::

        executor = SweepExecutor(workers=4)
        results = executor.map(specs)          # sweep order preserved

    ``workers=1`` executes in-process with no pickling, byte-for-byte
    the historical serial path.  With ``workers > 1`` each spec is
    pickled to a worker process; results stream back and are delivered
    in spec order, so progress callbacks and result lists are
    deterministic regardless of which worker finishes first.

    Hardening (long unattended sweeps, see E19):

    * ``timeout`` -- per-run wall-clock limit in seconds.  A run that
      exceeds it counts as failed; its worker process is killed and the
      pool recycled, so one hung simulation cannot wedge the sweep.
      Only enforced with ``workers > 1`` (a single process cannot
      preempt itself).
    * ``retries`` -- how many times a failed run (crashed worker,
      timeout, or raised exception) is re-executed before the sweep
      gives up.  Retries back off exponentially: attempt *n* waits
      ``retry_backoff * 2**(n-1)`` seconds.  Runs that were innocently
      interrupted by another run's crash are re-queued without being
      charged a retry.
    * ``stall_timeout`` -- supervision: workers pipe progress
      heartbeats (the engine's processed-event counter) back to the
      parent, and a run whose heartbeat freezes for this many seconds
      is killed as *hung* (:class:`WorkerStalledError`) -- long before
      a generous wall-clock ``timeout`` would fire -- while a straggler
      whose counter still advances is left alone.  Only enforced with
      ``workers > 1``, like ``timeout``.
    * When the budget is exhausted the raised :class:`SweepRunError`
      carries ``partial_results`` -- every completed
      :class:`SimulationResult` so far, keyed by spec index.

    With the default ``timeout=None, retries=0, stall_timeout=None``
    the executor behaves exactly as it always has (streaming results
    lazily in spec order); the hardened path buffers a pass before
    yielding.
    """

    def __init__(
        self,
        workers: WorkerCount = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        retry_backoff: float = 0.5,
        stall_timeout: Optional[float] = None,
        heartbeat_interval: float = 0.25,
    ) -> None:
        workers = resolve_workers(workers)
        if workers < 1:
            raise ValueError(f"workers must be >= 1 (got {workers})")
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive (got {timeout})")
        if retries < 0:
            raise ValueError(f"retries must be >= 0 (got {retries})")
        if retry_backoff < 0:
            raise ValueError(f"retry_backoff must be >= 0 (got {retry_backoff})")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive (got {stall_timeout})")
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive (got {heartbeat_interval})"
            )
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.retry_backoff = retry_backoff
        self.stall_timeout = stall_timeout
        self.heartbeat_interval = heartbeat_interval

    def map(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
        cache: Optional[ResultSource] = None,
    ) -> list[SimulationResult]:
        """Execute every spec; return results in spec order.

        ``progress`` is invoked in sweep order as each run's result
        becomes available.  Any failing run aborts the sweep with a
        :class:`SweepRunError` identifying it (outstanding runs are
        cancelled where possible).  With a ``cache``, previously stored
        results are served without re-running and fresh results are
        stored back (see :meth:`imap`).
        """
        return list(self.imap(specs, progress=progress, cache=cache))

    def imap(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
        cache: Optional[ResultSource] = None,
    ) -> Iterator[SimulationResult]:
        """Like :meth:`map` but yields results lazily, in spec order."""
        specs = list(specs)
        if cache is not None:
            yield from self._run_cached(specs, progress, cache)
        elif self.workers == 1 or len(specs) <= 1:
            yield from self._run_serial(specs, progress)
        elif (
            self.timeout is None
            and self.retries == 0
            and self.stall_timeout is None
        ):
            yield from self._run_parallel(specs, progress)
        else:
            yield from self._run_hardened(specs, progress)

    # ------------------------------------------------------------------
    # Execution strategies
    # ------------------------------------------------------------------
    def _run_cached(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback],
        cache: ResultSource,
    ) -> Iterator[SimulationResult]:
        """Serve cache hits, execute the misses through the normal
        strategies, deliver everything lazily in spec order.

        Hits resolve up front; the misses keep their relative order, so
        the recursive :meth:`imap` over them streams back exactly the
        results the walk below needs next -- no buffering, and one hung
        miss never delays a hit that precedes it in spec order.  Each
        fresh result is stored before ``progress`` sees it, so a process
        killed at any instant loses at most the run in flight.
        """
        hits: dict[int, SimulationResult] = {}
        misses: list[RunSpec] = []
        for position, spec in enumerate(specs):
            found = cache.lookup(spec)
            if found is None:
                misses.append(spec)
            else:
                hits[position] = found
        fresh = self.imap(misses) if misses else iter(())
        try:
            for position, spec in enumerate(specs):
                if position in hits:
                    result = hits[position]
                else:
                    result = next(fresh)
                    cache.store(spec, result)
                if progress is not None:
                    progress(spec, result)
                yield result
        finally:
            close = getattr(fresh, "close", None)
            if close is not None:
                close()

    def _run_serial(
        self, specs: Sequence[RunSpec], progress: Optional[ProgressCallback]
    ) -> Iterator[SimulationResult]:
        completed: dict[int, SimulationResult] = {}
        for spec in specs:
            failures = 0
            while True:
                try:
                    result = spec.execute()
                    break
                except Exception as error:
                    failures += 1
                    if failures > self.retries:
                        raise SweepRunError(
                            spec.index, spec.label, error, partial_results=completed
                        ) from error
                    time.sleep(self.retry_backoff * (2 ** (failures - 1)))
            completed[spec.index] = result
            if progress is not None:
                progress(spec, result)
            yield result

    def _run_parallel(
        self, specs: Sequence[RunSpec], progress: Optional[ProgressCallback]
    ) -> Iterator[SimulationResult]:
        from concurrent.futures import ProcessPoolExecutor

        workers = min(self.workers, len(specs))
        completed: dict[int, SimulationResult] = {}
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_execute_spec, spec) for spec in specs]
            try:
                # Deliver strictly in sweep order: waiting on futures in
                # submission order keeps results and progress callbacks
                # deterministic while the pool completes out of order
                # behind the scenes.
                for spec, future in zip(specs, futures):
                    try:
                        result = future.result()
                    except Exception as error:
                        # A worker crash (BrokenProcessPool) or a
                        # pickling failure lands here too: name the run
                        # instead of hanging or dying anonymously, and
                        # hand back everything that did finish.
                        raise SweepRunError(
                            spec.index, spec.label, error, partial_results=completed
                        ) from error
                    completed[spec.index] = result
                    if progress is not None:
                        progress(spec, result)
                    yield result
            finally:
                for future in futures:
                    future.cancel()

    def _run_hardened(
        self, specs: Sequence[RunSpec], progress: Optional[ProgressCallback]
    ) -> Iterator[SimulationResult]:
        """Parallel execution with timeout enforcement, heartbeat
        supervision and bounded retries.  Runs in passes: each pass
        submits every still-pending spec to a fresh pool; a hung or
        crashed worker aborts the pass (finished runs are salvaged,
        innocents re-queued uncharged) and the culprit is charged one
        failure.  A spec that exhausts ``retries`` raises
        :class:`SweepRunError` with every completed result attached."""
        manager: Optional[Any] = None
        beats: Optional[Any] = None
        if self.stall_timeout is not None:
            import multiprocessing

            # Heartbeats flow worker -> parent through a manager dict
            # keyed by spec index; a run whose entry stops *changing*
            # is hung, one whose entry keeps advancing is a straggler.
            manager = multiprocessing.Manager()
            beats = manager.dict()
        try:
            yield from self._run_hardened_passes(specs, progress, beats)
        finally:
            if manager is not None:
                manager.shutdown()

    def _run_hardened_passes(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback],
        beats: Optional[Any],
    ) -> Iterator[SimulationResult]:
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures import TimeoutError as FutureTimeoutError
        from concurrent.futures.process import BrokenProcessPool

        results: dict[int, SimulationResult] = {}
        failures: dict[int, int] = {spec.index: 0 for spec in specs}
        pending: list[RunSpec] = list(specs)
        while pending:
            pool = ProcessPoolExecutor(max_workers=min(self.workers, len(pending)))
            if beats is None:
                futures = [
                    (spec, pool.submit(_execute_spec, spec)) for spec in pending
                ]
            else:
                futures = [
                    (
                        spec,
                        pool.submit(
                            _execute_spec_beating,
                            spec,
                            beats,
                            self.heartbeat_interval,
                        ),
                    )
                    for spec in pending
                ]
            requeue: list[RunSpec] = []
            abort = False
            try:
                for spec, future in futures:
                    if abort:
                        # The pool is compromised; salvage runs that
                        # already finished, re-queue the rest without
                        # charging them a retry.
                        if future.done() and not future.cancelled():
                            try:
                                results[spec.index] = future.result()
                                continue
                            except Exception:
                                pass
                        requeue.append(spec)
                        continue
                    try:
                        results[spec.index] = self._await(spec, future, beats)
                    except FutureTimeoutError:
                        abort = True
                        cause: BaseException = TimeoutError(
                            f"run exceeded the {self.timeout:g}s"
                            " wall-clock limit"
                        )
                        self._charge(spec, cause, failures, requeue, results)
                    except WorkerStalledError as error:
                        abort = True
                        self._charge(spec, error, failures, requeue, results)
                    except BrokenProcessPool as error:
                        abort = True
                        self._charge(spec, error, failures, requeue, results)
                    except Exception as error:
                        self._charge(spec, error, failures, requeue, results)
            finally:
                self._teardown_pool(pool, abort)
            if requeue:
                charged = max(failures[spec.index] for spec in requeue)
                if charged:
                    time.sleep(self.retry_backoff * (2 ** (charged - 1)))
            pending = requeue
        for spec in specs:
            result = results[spec.index]
            if progress is not None:
                progress(spec, result)
            yield result

    def _await(
        self, spec: RunSpec, future: Any, beats: Optional[Any]
    ) -> SimulationResult:
        """Wait for one run, enforcing the wall-clock limit and -- when
        supervision is on -- the heartbeat stall limit.

        The stall clock starts at the worker's first beat (a queued run
        that has not started yet cannot be "hung") and resets whenever
        the beat value changes; it measures frozen *progress*, not
        elapsed time.  Raises ``concurrent.futures.TimeoutError`` at
        the wall-clock deadline and :class:`WorkerStalledError` when
        the heartbeat froze for ``stall_timeout`` seconds.
        """
        from concurrent.futures import TimeoutError as FutureTimeoutError

        if beats is None:
            result: SimulationResult = future.result(timeout=self.timeout)
            return result
        assert self.stall_timeout is not None
        deadline = (
            None if self.timeout is None else time.monotonic() + self.timeout
        )
        poll = max(min(self.stall_timeout / 4.0, 1.0), 0.05)
        last_beat: Optional[int] = None
        last_change: Optional[float] = None
        while True:
            now = time.monotonic()
            if deadline is not None and now >= deadline:
                raise FutureTimeoutError()
            wait = poll if deadline is None else min(poll, max(deadline - now, 0.01))
            try:
                supervised: SimulationResult = future.result(timeout=wait)
                return supervised
            except FutureTimeoutError:
                pass
            try:
                value = beats.get(spec.index)
            except Exception:  # manager hiccup: wall-clock only this poll
                value = None
            now = time.monotonic()
            if value is None:
                continue  # not started yet: queued behind other runs
            if last_beat is None or value != last_beat:
                last_beat = value
                last_change = now
            elif last_change is not None and now - last_change >= self.stall_timeout:
                raise WorkerStalledError(spec.label, self.stall_timeout)

    def _charge(
        self,
        spec: RunSpec,
        cause: BaseException,
        failures: dict[int, int],
        requeue: list[RunSpec],
        results: dict[int, SimulationResult],
    ) -> None:
        """Record one failure of ``spec``; re-queue it while budget
        remains, abort the sweep (with partial results) otherwise."""
        failures[spec.index] += 1
        if failures[spec.index] > self.retries:
            raise SweepRunError(
                spec.index, spec.label, cause, partial_results=results
            ) from cause
        requeue.append(spec)

    @staticmethod
    def _teardown_pool(pool: object, abort: bool) -> None:
        """Dispose of a pass's pool.  On abort the pool may hold a hung
        worker: don't wait for it, kill its processes outright so an
        unresponsive simulation cannot survive the sweep."""
        from concurrent.futures.process import ProcessPoolExecutor

        assert isinstance(pool, ProcessPoolExecutor)
        if not abort:
            pool.shutdown(wait=True, cancel_futures=True)
            return
        pool.shutdown(wait=False, cancel_futures=True)
        processes = getattr(pool, "_processes", None) or {}
        for pid in sorted(processes):
            try:
                processes[pid].kill()
            except Exception:  # pragma: no cover - process already gone
                pass
