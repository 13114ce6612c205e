"""The operating-system layer.

Paper Section 2.2: "The Operating System manages IO requests incoming
from multiple simulated concurrent threads.  It maintains a pool of
pending IOs from each thread and decides, based on a customizable
scheduling policy, which IOs to issue next to the SSD. [...] Once the
SSD has completed executing an IO, it interrupts and notifies the OS.
The OS then activates the thread that dispatched the IO."

Also implemented here (Section 2.3):

* per-thread statistics gathering objects;
* dependencies among threads -- a thread starts only after the threads
  it depends on have finished, the paper's mechanism for bringing the
  SSD to a well-defined state before measuring.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.core.config import SimulationConfig
from repro.core.engine import Simulator
from repro.core.events import IoRequest, IoStatus, IoType, WriteHints
from repro.core.rng import RandomSource, RandomStream
from repro.core.statistics import StatisticsGatherer
from repro.core.tracing import TraceRecorder
from repro.host.interface import OpenInterface, install_standard_handlers
from repro.host.schedulers import build_os_scheduler


class ThreadContext:
    """The handle a thread uses to talk to the operating system.

    Passed to ``on_init`` and ``on_io_completed``; provides IO issuing,
    virtual time, per-thread randomness, timers and completion.
    """

    def __init__(self, os: "OperatingSystem", record: "_ThreadRecord"):
        self._os = os
        self._record = record
        #: purpose -> stream: the OS's random source, never replaced,
        #: returns one stream per name; the memo saves the formatting.
        self._streams: dict[str, RandomStream] = {}

    @property
    def now(self) -> int:
        """Current virtual time (nanoseconds)."""
        return self._os.sim.now

    @property
    def logical_pages(self) -> int:
        """Size of the device's logical address space, in pages."""
        return self._os.logical_pages

    @property
    def thread_name(self) -> str:
        return self._record.name

    def rng(self, purpose: str = "main") -> RandomStream:
        """A deterministic random stream private to this thread."""
        stream = self._streams.get(purpose)
        if stream is None:
            stream = self._os.rng.stream(f"thread:{self._record.name}:{purpose}")
            self._streams[purpose] = stream
        return stream

    # ------------------------------------------------------------------
    # IO issuing
    # ------------------------------------------------------------------
    def read(self, lpn: int, hints: Optional[WriteHints] = None) -> IoRequest:
        return self._issue(IoType.READ, lpn, hints)

    def write(self, lpn: int, hints: Optional[WriteHints] = None) -> IoRequest:
        return self._issue(IoType.WRITE, lpn, hints)

    def trim(self, lpn: int, hints: Optional[WriteHints] = None) -> IoRequest:
        return self._issue(IoType.TRIM, lpn, hints)

    def _issue(self, io_type: IoType, lpn: int, hints: Optional[WriteHints]) -> IoRequest:
        logical_pages = self._os.logical_pages
        if not 0 <= lpn < logical_pages:
            raise ValueError(f"lpn {lpn} outside logical space [0, {logical_pages})")
        io = IoRequest(io_type, lpn, thread_name=self._record.name, hints=hints)
        self._os.issue(self._record, io)
        return io

    # ------------------------------------------------------------------
    # Control
    # ------------------------------------------------------------------
    def schedule(self, delay_ns: int, fn, *args: Any) -> None:
        """Run ``fn(*args)`` after a virtual delay (think time, timers)."""
        self._os.sim.post(delay_ns, fn, *args)

    def finish(self) -> None:
        """Declare this thread done; dependent threads may now start."""
        self._os.finish_thread(self._record)


class _ThreadRecord:
    """OS-side bookkeeping for one registered thread."""

    __slots__ = (
        "thread",
        "name",
        "context",
        "depends_on",
        "started",
        "finished",
        "stats",
        "issued",
        "completed",
    )

    def __init__(self, thread, depends_on: set[str], stats: Optional[StatisticsGatherer]):
        self.thread = thread
        self.name = thread.name
        self.context: Optional[ThreadContext] = None
        self.depends_on = depends_on
        self.started = False
        self.finished = False
        self.stats = stats
        self.issued = 0
        self.completed = 0


class OperatingSystem:
    """Per-thread IO pools, a pluggable OS scheduler and the queue-depth
    limit toward the device."""

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        controller,
        stats: StatisticsGatherer,
        tracer: Optional[TraceRecorder] = None,
        rng: Optional[RandomSource] = None,
    ):
        self.sim = sim
        self.config = config
        #: The logical address space, in pages.  Nothing changes a config's
        #: geometry or over-provisioning after the OS is built.
        self.logical_pages = config.logical_pages
        self.controller = controller
        self.stats = stats
        self.tracer = tracer if tracer is not None else TraceRecorder(enabled=False)
        self.rng = rng or RandomSource(config.seed)
        self.scheduler = build_os_scheduler(config.host)
        self.max_outstanding = config.host.max_outstanding
        self.outstanding = 0
        self.open_interface = OpenInterface(config.host.open_interface)
        install_standard_handlers(self.open_interface, controller)
        controller.on_io_complete = self._interrupt
        self._records: dict[str, _ThreadRecord] = {}
        self._started = False
        #: Completed IoRequest objects, kept only when configured.
        self.completed_ios: list[IoRequest] = []
        self._retain_ios = config.host.retain_completed_ios
        #: Crash subsystem (both set by the simulation only when a power
        #: loss is scheduled; plain no-ops otherwise).  ``_inflight``
        #: tracks dispatched-but-uncompleted IOs so a power cut can fail
        #: them; the auditor observes acknowledged writes.
        self.track_inflight = False
        self._inflight: dict[int, IoRequest] = {}
        self.auditor = None
        #: Overload layer (None when disabled, the default): host-side
        #: admission control plus the BUSY/TIMEOUT retry ladder.
        self._overload = config.overload if config.overload.enabled else None
        #: Deepest the OS pending pool has ever been.  A pure observer,
        #: tracked unconditionally: the legacy (unbounded) configuration
        #: needs it to *show* runaway queue growth in E20.
        self.os_queue_high_watermark = 0
        #: IOs rejected at host admission (pool at its bound).
        self.host_rejections = 0
        #: Retries scheduled / abandoned by the BUSY-TIMEOUT ladder.
        self.retries_scheduled = 0
        self.retries_exhausted = 0
        #: Final (post-ladder) failure deliveries, by status.
        self.busy_completions = 0
        self.timeout_completions = 0

    # ------------------------------------------------------------------
    # Thread registration and lifecycle
    # ------------------------------------------------------------------
    def add_thread(
        self,
        thread,
        depends_on: Iterable[str] = (),
        collect_stats: bool = True,
    ) -> None:
        """Register a workload thread.

        ``depends_on`` names threads that must *finish* before this one
        starts -- the preconditioning mechanism of Section 2.3.
        """
        if thread.name in self._records:
            raise ValueError(f"duplicate thread name {thread.name!r}")
        stats = StatisticsGatherer(thread.name) if collect_stats else None
        self._records[thread.name] = _ThreadRecord(thread, set(depends_on), stats)

    def start(self) -> None:
        """Kick off all threads without dependencies (at t = now).

        Dependencies may name threads registered in any order; they are
        validated here, once the full roster is known.
        """
        # simlint: disable=SIM003 -- _records is a plain dict keyed by
        # thread name; iteration follows add_thread() registration order,
        # which is part of the experiment definition.
        for record in self._records.values():
            unknown = record.depends_on - set(self._records)
            if unknown:
                raise ValueError(
                    f"unknown dependencies for {record.name!r}: {sorted(unknown)}"
                )
        self._started = True
        # simlint: disable=SIM003 -- registration order, as above.
        for record in self._records.values():
            if not record.depends_on:
                self.sim.post(0, self._start_thread, record)

    def _start_thread(self, record: _ThreadRecord) -> None:
        if record.started:
            return
        record.started = True
        record.context = ThreadContext(self, record)
        self.tracer.record(self.sim.now, "os", "thread-start", record.name)
        record.thread.on_init(record.context)

    def finish_thread(self, record: _ThreadRecord) -> None:
        if record.finished:
            return
        record.finished = True
        self.tracer.record(self.sim.now, "os", "thread-finish", record.name)
        # simlint: disable=SIM003 -- registration order, as above.
        for candidate in self._records.values():
            if candidate.started or candidate.finished:
                continue
            if all(
                self._records[name].finished for name in candidate.depends_on
            ):
                self.sim.post(0, self._start_thread, candidate)

    @property
    def all_finished(self) -> bool:
        return all(record.finished for record in self._records.values())

    def thread_stats(self, name: str) -> StatisticsGatherer:
        stats = self._records[name].stats
        if stats is None:
            raise LookupError(f"thread {name!r} has no statistics gatherer")
        return stats

    # ------------------------------------------------------------------
    # IO path
    # ------------------------------------------------------------------
    def issue(self, record: _ThreadRecord, io: IoRequest) -> None:
        """Accept an IO from a thread into its pending pool.

        With ``overload.host_queue_bound`` set, a full pool *rejects*
        the IO instead of queueing it -- an NVMe-style bounded
        submission queue: the rejected IO completes with ``BUSY`` and
        the thread observes backpressure through its normal completion
        callback.  Host rejections are final -- the retry ladder serves
        *device* pushback; a saturated host pool means the application
        itself must slow down.
        """
        io.issue_time = self.sim.now
        record.issued += 1
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "os", "issue", f"{io.io_type} lpn={io.lpn} by {record.name}"
            )
        overload = self._overload
        if (
            overload is not None
            and overload.host_queue_bound is not None
            and len(self.scheduler) >= overload.host_queue_bound
        ):
            self.host_rejections += 1
            self.tracer.record(
                self.sim.now, "os", "reject", f"pool-full lpn={io.lpn} #{io.id}"
            )
            io.status = IoStatus.BUSY
            self.sim.post(0, self._deliver_rejected, io)
            return
        self._enqueue(io)
        self._dispatch()

    def _enqueue(self, io: IoRequest) -> None:
        self.scheduler.add(io)
        depth = len(self.scheduler)
        if depth > self.os_queue_high_watermark:
            self.os_queue_high_watermark = depth

    def _deliver_rejected(self, io: IoRequest) -> None:
        """Complete a host-rejected IO (never dispatched)."""
        io.complete_time = self.sim.now
        self._deliver(io)

    def _dispatch(self) -> None:
        while self.outstanding < self.max_outstanding:
            io = self.scheduler.pop(self.sim.now)
            if io is None:
                return
            io.dispatch_time = self.sim.now
            self.outstanding += 1
            if self.track_inflight:
                self._inflight[io.id] = io
            if self.tracer.enabled:
                self.tracer.record(
                    self.sim.now, "os", "dispatch", f"{io.io_type} lpn={io.lpn} #{io.id}"
                )
            self.controller.submit_io(io)

    def _interrupt(self, io: IoRequest) -> None:
        """Completion interrupt from the SSD."""
        self.outstanding -= 1
        if self.outstanding < 0:
            raise RuntimeError("completion interrupt without outstanding IO")
        if self._inflight:
            self._inflight.pop(io.id, None)
        if self._overload is not None and self._maybe_retry(io):
            self._dispatch()
            return
        self._deliver(io)

    def _deliver(self, io: IoRequest) -> None:
        """Final delivery: statistics, audit and the thread callback."""
        if self.auditor is not None:
            self.auditor.on_completion(io)
        if self._retain_ios:
            self.completed_ios.append(io)
        if io.status is IoStatus.BUSY:
            self.busy_completions += 1
        elif io.status is IoStatus.TIMEOUT:
            self.timeout_completions += 1
        self.stats.record_io(io)
        record = self._records.get(io.thread_name)
        if record is not None:
            record.completed += 1
            if record.stats is not None:
                record.stats.record_io(io)
            if not record.finished and record.context is not None:
                record.thread.on_io_completed(record.context, io)
        self._dispatch()

    # ------------------------------------------------------------------
    # Retry ladder (overload subsystem)
    # ------------------------------------------------------------------
    def _maybe_retry(self, io: IoRequest) -> bool:
        """Arm a retry for a device BUSY/TIMEOUT completion.

        Deterministic exponential backoff, bounded by ``max_retries``
        and by the per-IO deadline budget (``io_deadline_ns`` from first
        issue).  Returns True when a retry was scheduled -- the
        completion is then consumed and the thread sees nothing until
        the IO either succeeds or fails definitively.
        """
        if io.status not in (IoStatus.BUSY, IoStatus.TIMEOUT):
            return False
        overload = self._overload
        if io.attempts >= overload.max_retries:
            if overload.max_retries > 0:
                self.retries_exhausted += 1
            return False
        delay = overload.retry_backoff_ns * 2**io.attempts
        if overload.io_deadline_ns is not None and io.issue_time is not None:
            if self.sim.now + delay - io.issue_time > overload.io_deadline_ns:
                self.retries_exhausted += 1
                return False
        io.attempts += 1
        self.retries_scheduled += 1
        self.tracer.record(
            self.sim.now,
            "os",
            "retry",
            f"{io.status} lpn={io.lpn} #{io.id} try={io.attempts} in {delay}ns",
        )
        self.sim.post(delay, self._retry_io, io)
        return True

    def _retry_io(self, io: IoRequest) -> None:
        """Re-submit a backed-off IO through the normal pending pool."""
        io.status = IoStatus.OK
        io.dispatch_time = None
        io.complete_time = None
        self._enqueue(io)
        self._dispatch()

    # ------------------------------------------------------------------
    # Crash support (armed only when a power loss is scheduled)
    # ------------------------------------------------------------------
    def power_fail_inflight(self, ready_ns: int) -> int:
        """Fail every dispatched-but-uncompleted IO with ``POWER_FAIL``.

        Their completion events inside the device died with the power;
        real hosts see such requests time out and error once the device
        is back.  Delivery is deferred to ``ready_ns`` (device remounted)
        through OS-module events, which survive the device-event purge.
        Returns the number of failed IOs.
        """
        failed = 0
        for io_id in sorted(self._inflight):
            io = self._inflight[io_id]
            io.status = IoStatus.POWER_FAIL
            self.sim.post_at(ready_ns, self._deliver_power_fail, io)
            failed += 1
        return failed

    def _deliver_power_fail(self, io: IoRequest) -> None:
        io.complete_time = self.sim.now
        self._interrupt(io)
