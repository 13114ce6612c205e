"""Parallel sweep execution.

The paper's whole point (Section 2.1) is making design-space
explorations of "hundreds of experiments" tractable.  Every run of a
sweep is an independent simulation -- same code, different
configuration -- so the sweep is embarrassingly parallel across
processes.  This module provides the machinery:

* :class:`RunSpec` -- one picklable unit of work: a fully-prepared
  configuration, a reference to the workload factory, and the time
  limit.  The parameter values have already been applied to the config
  by the experiment grid, so workers never see ``Parameter`` objects
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

import heapq
import os
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Protocol, Sequence, Union

from repro.core.canonical import canonical_value, canonical_workload, content_hash
from repro.core.config import SimulationConfig
from repro.core.simulation import Simulation, SimulationResult

if TYPE_CHECKING:
    from concurrent.futures import Future, ProcessPoolExecutor

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

    Raised by the pool's stall supervision when a run's heartbeat --
    the engine's processed-event counter, published by the worker into
    an array shared with the parent -- froze for ``stall_timeout``
    seconds.  A *straggler* (slow but still advancing) never trips
    this; it is bounded only by the wall-clock ``timeout``.
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

#: Seconds before a failed run is re-executed; attempt *n* waits
#: ``RETRY_BACKOFF * 2**(n-1)``.  In a pool the other runs keep the
#: workers busy meanwhile.  Tests may monkeypatch it.
RETRY_BACKOFF = 0.5

#: Worker-process heartbeat state, installed by :func:`_init_worker`:
#: the sweep's shared ``int64`` array (one slot per spec position) and
#: the sampling interval in seconds.  ``None`` when the sweep is not
#: under stall supervision.
_worker_beats: Optional[Any] = None
_worker_interval = 0.0


def _init_worker(beats: Optional[Any], interval: float) -> None:
    """Pool initializer: hand the worker the sweep's heartbeat array and
    make it exit when the sweep's process dies."""
    global _worker_beats, _worker_interval
    _worker_beats, _worker_interval = beats, interval
    threading.Thread(
        target=_exit_with_parent, args=(os.getppid(),), name="parent-watch", daemon=True
    ).start()


def _exit_with_parent(parent: int) -> None:
    """Exit the worker within about a second of ``parent`` dying.

    A SIGKILLed sweep leaves its workers blocked forever on the call
    queue, whose pipe their siblings keep open.  ``PR_SET_PDEATHSIG``
    does not fit: it fires when the parent *thread* that forked the
    worker exits, and the service submits sweeps from a job thread.
    """
    while os.getppid() == parent:
        time.sleep(1.0)
    os._exit(1)


def _execute_spec(spec: RunSpec, position: int) -> SimulationResult:
    """The pool's worker entry point (picklable under every start method).

    Under stall supervision the run publishes heartbeats into slot
    ``position`` of the shared array: ``1`` when it starts, then
    ``1 + processed_events`` on every tick of an interval timer
    (``0`` means "not started").  The parent watches for the value to
    *change*, so a hung run (counter frozen inside one event, or stuck
    building its workload) is distinguishable from a straggler (counter
    advancing) without touching the simulation hot path.  The timer's
    ``SIGALRM`` handler runs in the simulating thread itself, between
    two bytecodes: a beat never waits for a second thread to win the
    GIL, which a busy machine can delay for most of a stall window.
    """
    beats, interval = _worker_beats, _worker_interval
    if beats is None:
        return spec.execute()
    import signal

    simulation: Optional[Simulation] = None

    def beat(signum: int, frame: object) -> None:
        if simulation is not None:
            beats[position] = 1 + simulation.sim.processed_events

    beats[position] = 1
    previous = signal.signal(signal.SIGALRM, beat)
    signal.setitimer(signal.ITIMER_REAL, interval, interval)
    try:
        simulation = spec.build()
        return simulation.run(max_time_ns=spec.max_time_ns)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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
    in spec order as soon as a run and every run before it have
    finished, so progress callbacks and result lists are deterministic
    regardless of which worker finishes first.

    Hardening (long unattended sweeps, see E19):

    * ``timeout`` -- per-run wall-clock limit in seconds.  A run that
      exceeds it counts as failed; its worker process is killed and the
      pool recycled, so one hung simulation cannot wedge the sweep.
      Only enforced with ``workers > 1`` (a single process cannot
      preempt itself).
    * ``retries`` -- how many times a failed run (crashed worker,
      timeout, or raised exception) is re-executed before the sweep
      gives up.  Retries back off exponentially: attempt *n* waits
      ``RETRY_BACKOFF * 2**(n-1)`` seconds.  Runs that were innocently
      interrupted by another run's crash are re-queued without being
      charged a retry.
    * ``stall_timeout`` -- supervision: workers publish progress
      heartbeats (the engine's processed-event counter) into an array
      shared with the parent, and a run whose heartbeat freezes for
      this many seconds is killed as *hung* (:class:`WorkerStalledError`)
      -- long before a generous wall-clock ``timeout`` would fire --
      while a straggler whose counter still advances is left alone.
      Only enforced with ``workers > 1``, like ``timeout``; POSIX only
      (workers beat from a ``SIGALRM`` interval timer).
    * When the budget is exhausted the raised :class:`SweepRunError`
      carries ``partial_results`` -- every completed
      :class:`SimulationResult`, keyed by spec index.

    Every combination of these options streams results the same way;
    with the defaults ``timeout=None, retries=0, stall_timeout=None``
    the first failing run aborts the sweep.
    """

    def __init__(
        self,
        workers: WorkerCount = 1,
        *,
        timeout: Optional[float] = None,
        retries: int = 0,
        stall_timeout: Optional[float] = None,
    ) -> None:
        workers = resolve_workers(workers)
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be positive (got {timeout})")
        if retries < 0:
            raise ValueError(f"retries must be >= 0 (got {retries})")
        if stall_timeout is not None and stall_timeout <= 0:
            raise ValueError(f"stall_timeout must be positive (got {stall_timeout})")
        self.workers = workers
        self.timeout = timeout
        self.retries = retries
        self.stall_timeout = stall_timeout

    def map(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[ProgressCallback] = None,
        cache: Optional[ResultSource] = None,
    ) -> list[SimulationResult]:
        """Execute every spec; return results in spec order.

        ``progress`` is invoked in sweep order as each run's result
        becomes available.  Any failing run aborts the sweep with a
        :class:`SweepRunError` identifying it (the runs before it still
        complete; later runs in flight finish, the rest never start).
        With a ``cache``, previously stored results are served without
        re-running and fresh results are stored back (see :meth:`imap`).
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
        else:
            yield from _PoolRun(self, specs).deliver(progress)

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
                    time.sleep(RETRY_BACKOFF * 2 ** (failures - 1))
            completed[spec.index] = result
            if progress is not None:
                progress(spec, result)
            yield result


@dataclass
class _Flight:
    """One run submitted to the pool, with its supervision clocks."""

    position: int
    submitted: float
    #: Last heartbeat seen (``0``: not started) and when it last changed.
    beat: int = 0
    changed: float = 0.0


class _PoolRun:
    """The state of one sweep over a supervised process pool.

    At most ``workers`` runs are in flight, submitted lowest spec
    position first, so a run starts as soon as it is submitted and its
    wall-clock ``timeout`` counts from there.  Each step waits
    for a run to finish or a supervision deadline, then:

    * a run that *raised* is charged one failure and re-queued after its
      backoff, while fresh runs take its slot;
    * a run that *timed out*, *stalled* or *crashed its worker*
      (``BrokenProcessPool``) takes the pool down: runs that already
      finished are salvaged, the pool's processes are killed, only the
      culprit is charged and every innocent run is re-queued uncharged
      on a fresh pool;
    * a run that exhausts ``retries`` marks the sweep failed at its
      position: the runs before it still complete, the runs in flight
      after it drain, then :class:`SweepRunError` is raised with every
      finished run in ``partial_results``.

    :meth:`deliver` yields the results in spec order as they land.
    """

    def __init__(self, executor: SweepExecutor, specs: Sequence[RunSpec]) -> None:
        self.specs = specs
        self.timeout = executor.timeout
        self.retries = executor.retries
        self.stall_timeout = executor.stall_timeout
        self.width = min(executor.workers, len(specs))
        self.beats: Optional[Any] = None
        self.interval = self.poll = 0.0
        if self.stall_timeout is not None:
            import multiprocessing

            # One slot per spec position, written by the workers, read
            # here; no lock: each slot has a single writer at a time.
            self.beats = multiprocessing.Array("q", len(specs), lock=False)
            self.poll = max(min(self.stall_timeout / 4.0, 1.0), 0.05)
            self.interval = max(min(self.stall_timeout / 8.0, 1.0), 0.01)
        self.pool = self._start_pool()
        self.ready = list(range(len(specs)))  # heap of positions to submit
        self.backing_off: list[tuple[float, int]] = []  # heap of (due, position)
        self.flights: dict[Future[SimulationResult], _Flight] = {}
        self.finished: dict[int, SimulationResult] = {}
        self.failures = [0] * len(specs)
        #: The lowest position that exhausted its retries, and why.
        self.failed: Optional[tuple[int, BaseException]] = None
        self._refill(time.monotonic())

    def deliver(self, progress: Optional[ProgressCallback]) -> Iterator[SimulationResult]:
        """Yield every result in spec order as soon as it and all earlier
        ones have finished, calling ``progress`` first.  The pool is
        disposed of at the end; runs still in flight are killed."""
        try:
            cursor = 0
            while True:
                while cursor in self.finished:
                    result = self.finished[cursor]
                    if progress is not None:
                        progress(self.specs[cursor], result)
                    yield result
                    cursor += 1
                if cursor == len(self.specs):
                    return
                self._step(cursor)
        finally:
            _teardown_pool(self.pool, abort=bool(self.flights))

    def _step(self, cursor: int) -> None:
        """Advance the sweep by one event; ``cursor`` is the first
        position not yet delivered.  Raises :class:`SweepRunError` once
        everything before the failed position is delivered and nothing
        is in flight."""
        from concurrent.futures.process import BrokenProcessPool

        if self.failed is not None and cursor == self.failed[0] and not self.flights:
            position, cause = self.failed
            spec = self.specs[position]
            partial = {self.specs[p].index: r for p, r in self.finished.items()}
            raise SweepRunError(
                spec.index, spec.label, cause, partial_results=partial
            ) from cause
        done = self._wait()
        # Taken before any charge below, so a run charged in this step
        # is never due in this step's refill: the runs already waiting
        # take its slot first.
        now = time.monotonic()
        crash: Optional[BaseException] = None
        for future in done:
            error = future.exception()
            if isinstance(error, BrokenProcessPool):
                crash = error
                continue
            position = self.flights.pop(future).position
            if error is None:
                self.finished[position] = future.result()
            else:
                self._charge(position, error)
        if crash is not None:
            # Which worker died is unknown: charge the lowest unfinished
            # run, the one delivery is waiting on.
            unfinished = [
                flight.position
                for future, flight in self.flights.items()
                if not _succeeded(future)
            ]
            culprit: Optional[tuple[int, BaseException]] = (min(unfinished), crash)
        else:
            culprit = self._overdue(now)
        if culprit is not None:
            self._recycle(*culprit)
        self._refill(now)

    def _start_pool(self) -> "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor(
            max_workers=self.width,
            initializer=_init_worker,
            initargs=(self.beats, self.interval),
        )

    def _refill(self, now: float) -> None:
        """Submit runs (lowest position first) until every worker is
        busy; while the sweep is failing, only runs before the failed
        position."""
        from concurrent.futures.process import BrokenProcessPool

        limit = len(self.specs) if self.failed is None else self.failed[0]
        while self.backing_off and self.backing_off[0][0] <= now:
            heapq.heappush(self.ready, heapq.heappop(self.backing_off)[1])
        while self.ready and self.ready[0] < limit and len(self.flights) < self.width:
            position = self.ready[0]
            if self.beats is not None:
                self.beats[position] = 0
            try:
                future = self.pool.submit(_execute_spec, self.specs[position], position)
            except BrokenProcessPool:
                # A worker died between runs: the runs in flight report
                # it on the next wait; an idle pool is just replaced.
                if self.flights:
                    return
                _teardown_pool(self.pool, abort=True)
                self.pool = self._start_pool()
                continue
            heapq.heappop(self.ready)
            self.flights[future] = _Flight(position, now)

    def _wait(self) -> "set[Future[SimulationResult]]":
        """Block until a run finishes or the next deadline: a wall-clock
        limit, a heartbeat poll or a retry's backoff."""
        from concurrent.futures import FIRST_COMPLETED, wait

        now = time.monotonic()
        deadlines = [due for due, _ in self.backing_off[:1]]
        if self.flights and self.timeout is not None:
            started = min(flight.submitted for flight in self.flights.values())
            deadlines.append(started + self.timeout)
        if self.flights and self.beats is not None:
            deadlines.append(now + self.poll)
        timeout = max(min(deadlines) - now, 0.0) if deadlines else None
        if not self.flights:
            # Only a backing-off retry is left to run.
            assert timeout is not None
            time.sleep(timeout)
            return set()
        return wait(self.flights, timeout=timeout, return_when=FIRST_COMPLETED).done

    def _overdue(self, now: float) -> Optional[tuple[int, BaseException]]:
        """The lowest-position run in flight that exceeded its wall-clock
        limit or whose heartbeat froze for ``stall_timeout``.

        The stall clock starts at the run's first beat (a run whose
        worker has not picked it up cannot be hung) and resets whenever
        the beat value changes: it measures frozen *progress*, not
        elapsed time.
        """
        flights = sorted(self.flights.items(), key=lambda item: item[1].position)
        for future, flight in flights:
            if future.done():
                continue
            if self.timeout is not None and now - flight.submitted >= self.timeout:
                return flight.position, TimeoutError(
                    f"run exceeded the {self.timeout:g}s wall-clock limit"
                )
            if self.beats is None or self.stall_timeout is None:
                continue
            beat = self.beats[flight.position]
            if beat == 0:
                continue
            if beat != flight.beat:
                flight.beat, flight.changed = beat, now
            elif now - flight.changed >= self.stall_timeout:
                label = self.specs[flight.position].label
                return flight.position, WorkerStalledError(label, self.stall_timeout)
        return None

    def _recycle(self, culprit: int, cause: BaseException) -> None:
        """The pool is compromised: salvage the runs that finished, kill
        its processes, charge ``culprit`` and re-queue every other run
        uncharged on a fresh pool."""
        for future, flight in self.flights.items():
            if _succeeded(future):
                self.finished[flight.position] = future.result()
            elif flight.position != culprit:
                heapq.heappush(self.ready, flight.position)
        self.flights.clear()
        _teardown_pool(self.pool, abort=True)
        self.pool = self._start_pool()
        if culprit not in self.finished:  # it may have finished meanwhile
            self._charge(culprit, cause)

    def _charge(self, position: int, cause: BaseException) -> None:
        """Record one failure of the run at ``position``: re-queue it
        after its backoff while budget remains, otherwise mark the sweep
        failed (at the lowest exhausted position)."""
        self.failures[position] += 1
        failures = self.failures[position]
        if failures <= self.retries:
            due = time.monotonic() + RETRY_BACKOFF * 2 ** (failures - 1)
            heapq.heappush(self.backing_off, (due, position))
        elif self.failed is None or position < self.failed[0]:
            self.failed = (position, cause)


def _succeeded(future: "Future[SimulationResult]") -> bool:
    return future.done() and future.exception() is None


def _teardown_pool(pool: "ProcessPoolExecutor", abort: bool) -> None:
    """Dispose of a pool.  On abort the pool may hold a hung worker:
    don't wait for it, kill its processes outright so an unresponsive
    simulation cannot survive the sweep."""
    if not abort:
        pool.shutdown(wait=True, cancel_futures=True)
        return
    # Taken before shutdown(), which drops the pool's process table.
    processes = dict(getattr(pool, "_processes", None) or {})
    pool.shutdown(wait=False, cancel_futures=True)
    for pid in sorted(processes):
        try:
            processes[pid].kill()
        except Exception:  # pragma: no cover - process already gone
            pass
