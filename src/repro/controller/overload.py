"""Device-side overload governance: admission, timeouts, degradation.

Real devices are not infinitely elastic: NVMe submission queues have
fixed depths, commands carry timeouts, and firmware under GC pressure
pushes back on the host instead of absorbing arbitrary backlogs (Amber
and SimpleSSD both treat finite queueing as first-class; see PAPERS.md).
:class:`OverloadGovernor` brings that discipline to the controller.  It
is built only when ``config.overload.enabled`` is set -- the default
simulator has no governor object and keeps every code path untouched.

Three responsibilities:

* **Admission control** (:meth:`admit`): an IO arriving while the
  device's pending flash-command queues are at ``device_queue_bound``
  completes immediately with ``BUSY`` after only the command handshake
  cost, exactly like a full NVMe submission queue.
* **Degraded mode**: crossing the queue-depth watermark
  (``degraded_enter_pending``) enters a degraded state that sheds
  low-priority IOs and rate-limits admission until the backlog drains
  to half that watermark.  Time spent degraded and every entry are
  counted.
* **Command timeouts** (:meth:`arm_timeout`): an application command
  still queued ``command_timeout_ns`` after enqueue is aborted -- it is
  deleted from its LUN queue, its in-flight-read accounting is
  reversed, and its IO completes with ``TIMEOUT``.  Only commands that
  reserved no device state at enqueue are abortable (reads and
  late-binding programs); commands that already started executing are
  never touched.

Determinism: the governor consumes no randomness and uses only
fire-and-forget engine events (lazy timeout checks), so enabling it
never perturbs RNG streams or leaks event handles -- properties the
sanitizer and the hypothesis suite in ``tests/overload/`` pin down.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.events import IoRequest, IoStatus
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


def can_abort(cmd: FlashCommand) -> bool:
    """Whether a queued command may be timeout-aborted safely.

    Abortable means *no device state was reserved at enqueue time*:

    * application READs (the in-flight-read count is reversible);
    * application PROGRAMs whose page is still allocator-bound
      (``address.block < 0``): page/DFTL writes bind late, so nothing
      exists to roll back.

    Everything else is exempt: internal traffic (GC, wear leveling,
    mapping) must drain for the device to recover, and the hybrid FTL's
    programs pre-reserve log-block slots at enqueue.
    """
    if cmd.source is not CommandSource.APPLICATION or cmd.io is None:
        return False
    if cmd.kind is CommandKind.READ:
        return True
    return cmd.kind is CommandKind.PROGRAM and cmd.address.block < 0


class OverloadGovernor:
    """Admission control, degraded mode and command timeouts."""

    def __init__(self, controller: "SsdController") -> None:
        self.controller = controller
        self.sim = controller.sim
        self.config = controller.config.overload
        #: IOs rejected because the device queue bound was reached.
        self.busy_rejections = 0
        #: IOs shed in degraded mode (priority above the threshold).
        self.shed_ios = 0
        #: IOs rejected by the degraded-mode admission rate limit.
        self.throttled_ios = 0
        #: Commands aborted past their queued-age budget.
        self.command_timeouts = 0
        #: Times the controller entered degraded mode.
        self.degraded_entries = 0
        #: Virtual nanoseconds spent degraded (closed intervals only;
        #: use :meth:`time_degraded_total` for the running total).
        self.time_degraded_ns = 0
        self.degraded = False
        self._degraded_since = 0
        self._last_admitted_ns: Optional[int] = None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(self, io: IoRequest) -> bool:
        """Admission decision for one host IO.

        Returns True to admit.  On rejection the IO is completed with
        ``BUSY`` after the command-handshake cost and False is returned
        (the caller must not process it further).
        """
        cfg = self.config
        pending = self.controller.scheduler.total_pending()
        self._update_degraded(pending)
        if cfg.device_queue_bound is not None and pending >= cfg.device_queue_bound:
            self.busy_rejections += 1
            return self._reject(io, "queue-full")
        if self.degraded:
            if cfg.shed_priority_threshold is not None:
                priority = int(self.controller.hints_of(io).get("priority", 0))
                if priority > cfg.shed_priority_threshold:
                    self.shed_ios += 1
                    return self._reject(io, "shed")
            gap = cfg.degraded_admission_gap_ns
            if (
                gap > 0
                and self._last_admitted_ns is not None
                and self.sim.now - self._last_admitted_ns < gap
            ):
                self.throttled_ios += 1
                return self._reject(io, "throttled")
        self._last_admitted_ns = self.sim.now
        return True

    def _reject(self, io: IoRequest, reason: str) -> bool:
        io.status = IoStatus.BUSY
        self.controller.tracer.record(
            self.sim.now, "overload", "reject", f"{reason} lpn={io.lpn} #{io.id}"
        )
        self.controller.complete_quick(io)
        return False

    # ------------------------------------------------------------------
    # Degraded mode
    # ------------------------------------------------------------------
    def _update_degraded(self, pending: int) -> None:
        enter = self.config.degraded_enter_pending
        if enter is None:
            return
        if not self.degraded:
            if pending >= enter:
                self.degraded = True
                self.degraded_entries += 1
                self._degraded_since = self.sim.now
                self.controller.tracer.record(
                    self.sim.now, "overload", "degraded-enter", f"pending={pending}"
                )
            return
        if pending <= enter // 2:
            self.degraded = False
            self.time_degraded_ns += self.sim.now - self._degraded_since
            self.controller.tracer.record(
                self.sim.now, "overload", "degraded-exit", f"pending={pending}"
            )

    def note_progress(self) -> None:
        """Completion hook: re-evaluate degraded mode as backlog drains,
        so the device recovers without waiting for a new admission."""
        if self.degraded:
            self._update_degraded(self.controller.scheduler.total_pending())

    def time_degraded_total(self, now: int) -> int:
        """Total degraded time including a still-open interval."""
        total = self.time_degraded_ns
        if self.degraded:
            total += now - self._degraded_since
        return total

    # ------------------------------------------------------------------
    # Command timeouts
    # ------------------------------------------------------------------
    def arm_timeout(self, cmd: FlashCommand) -> None:
        """Schedule a lazy timeout check for a just-enqueued command.

        Fire-and-forget: the check no-ops if the command started (or was
        already aborted) by the time it fires, so no handle bookkeeping
        is needed and the sanitizer's drain check stays clean.
        """
        if self.config.command_timeout_ns is None or not can_abort(cmd):
            return
        if cmd.start_time is not None:
            return  # the enqueue already started it
        self.sim.post(self.config.command_timeout_ns, self._check_timeout, cmd)

    def _check_timeout(self, cmd: FlashCommand) -> None:
        if cmd.start_time is not None or cmd.aborted:
            return
        self._abort(cmd)

    def _abort(self, cmd: FlashCommand) -> None:
        """Abort a still-queued command and fail its IO with TIMEOUT.

        Cleanup mirrors ``enqueue_command`` exactly: the command is
        deleted from its LUN queue and, for reads, the block's
        in-flight-read count (which gates erases) is released -- a read
        stuck behind an erase storm no longer blocks that very erase.
        Neither ``on_complete`` nor the controller's completion funnel
        ever sees it: the command never executed, so neither
        flash-command statistics nor the reliability interceptor count
        it.
        """
        cmd.aborted = True
        self.controller.scheduler.abort(cmd)
        if cmd.kind is CommandKind.READ:
            lun = self.controller.array.luns[cmd.lun_key]
            lun.release_read(cmd.address.block)
        self.command_timeouts += 1
        self.controller.tracer.record(
            self.sim.now, "overload", "timeout", f"{cmd.kind} lpn={cmd.lpn} #{cmd.id}"
        )
        io = cmd.io
        io.status = IoStatus.TIMEOUT
        self.controller.complete_io(io)
        # The abort freed queue space; the device may have recovered.
        self.note_progress()
