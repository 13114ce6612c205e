"""The discrete-event simulation engine.

EagleTree's defining trait (paper Section 2.1) is that the *entire* IO
stack -- application threads, operating system, SSD controller and flash
array -- runs in virtual time, so that design-space explorations with
hundreds of experiments remain tractable.  This module provides that
virtual clock.

The engine is a classic calendar queue built on :mod:`heapq`:

* Events are scheduled at an absolute virtual time (integer nanoseconds).
* Events scheduled for the same instant fire in FIFO order of scheduling,
  which makes every simulation fully deterministic.
* Events may be cancelled; cancelled events are dropped lazily when they
  reach the head of the queue, and the queue is compacted when cancelled
  entries start to dominate it.

Because every simulated nanosecond flows through this queue, the hot
path is kept allocation-light: the heap stores plain tuples
``(time, seq, fn, args, handle)`` whose ordering is resolved by fast
C-level tuple comparison on the unique ``(time, seq)`` prefix -- the
comparison never reaches the callable.  Fire-and-forget callers use
:meth:`Simulator.post`, which skips the :class:`EventHandle` entirely;
cancellation is tracked in a set of sequence numbers so that
:attr:`Simulator.pending_events` stays O(1) via a live counter.

The engine knows nothing about SSDs; the layers above register plain
callables.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.core.sanitize import SanitizerError

#: Compact the heap only once this many cancelled entries linger in it
#: (and they outnumber the live entries) -- small queues never pay.
_COMPACT_MIN_CANCELLED = 1024


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class EventHandle:
    """A scheduled event, returned by :meth:`Simulator.schedule`.

    Holding on to the handle allows the caller to :meth:`cancel` the event
    before it fires.  Handles are single-use: once fired or cancelled they
    stay inert.
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "fired", "_sim")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        sim: Optional["Simulator"] = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.fired = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._cancel(self.seq)

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not self.cancelled and not self.fired

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else ("fired" if self.fired else "pending")
        return f"EventHandle(t={self.time}, seq={self.seq}, {state}, fn={self.fn!r})"


class Simulator:
    """A deterministic discrete-event simulator with an integer clock.

    Typical use::

        sim = Simulator()
        sim.schedule(100, lambda: print("fires at t=100"))
        sim.run()
    """

    __slots__ = (
        "now",
        "_seq",
        "_queue",
        "_processed",
        "_live",
        "_cancelled",
        "_sanitize",
        "_handles",
    )

    def __init__(self, sanitize: bool = False) -> None:
        #: Current virtual time in nanoseconds.  A plain attribute, read on
        #: every event by every layer; only this class writes it.
        self.now = 0
        self._seq = 0
        #: Heap entries: (time, seq, fn, args, handle-or-None).
        self._queue: list[tuple] = []
        self._processed = 0
        #: Count of queued, non-cancelled entries (O(1) pending_events).
        self._live = 0
        #: Sequence numbers cancelled while still sitting in the heap.
        self._cancelled: set[int] = set()
        #: Sanitizer mode (:mod:`repro.core.sanitize`): verify virtual-time
        #: monotonicity on every fire and track outstanding EventHandles so
        #: :meth:`drain_check` can detect leaked handles.  Checks are pure
        #: observers -- a sanitized run is bit-identical to a plain one.
        self._sanitize = sanitize
        #: seq -> EventHandle for every handle that is still pending
        #: (sanitize mode only; stays empty otherwise).
        self._handles: dict[int, EventHandle] = {}

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of scheduled, not-cancelled events still queued."""
        return self._live

    def schedule(self, delay: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` nanoseconds from now.

        ``delay`` must be non-negative; a zero delay fires after all
        callbacks already queued for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at the absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(time, seq, fn, args, self)
        heapq.heappush(self._queue, (time, seq, fn, args, handle))
        self._live += 1
        if self._sanitize:
            self._handles[seq] = handle
        return handle

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`EventHandle`.

        The hot path of the layers above -- flash phase completions, OS
        dispatches, thread timers -- never cancels its events, so it can
        skip the handle allocation entirely.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn, args, None))
        self._live += 1

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule_at`: no :class:`EventHandle`."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, fn, args, None))
        self._live += 1

    def peek_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None if none remain."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            entry = queue[0]
            if entry[1] in cancelled:
                heapq.heappop(queue)
                cancelled.discard(entry[1])
                continue
            return entry[0]
        return None

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        queue = self._queue
        cancelled = self._cancelled
        while queue:
            time, seq, fn, args, handle = heapq.heappop(queue)
            if seq in cancelled:
                cancelled.discard(seq)
                continue
            if self._sanitize:
                self._check_monotonic(time, seq, fn)
            self.now = time
            self._live -= 1
            self._processed += 1
            if handle is not None:
                handle.fired = True
                self._handles.pop(seq, None)
            fn(*args)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is an absolute virtual time; events scheduled exactly at
        ``until`` still fire, later ones do not (and the clock is advanced
        to ``until``).  Returns the number of events fired by this call.
        """
        # One tight loop instead of peek_time()+step() per event: the head
        # entry is examined exactly once, and the heap/cancellation state
        # is touched through locals.  Callbacks may reschedule or cancel
        # freely -- the queue list and cancelled set are mutated in place.
        queue = self._queue
        cancelled = self._cancelled
        heappop = heapq.heappop
        sanitize = self._sanitize
        fired = 0
        while queue:
            if max_events is not None and fired >= max_events:
                break
            entry = queue[0]
            if entry[1] in cancelled:
                heappop(queue)
                cancelled.discard(entry[1])
                continue
            time = entry[0]
            if until is not None and time > until:
                self.now = until
                break
            heappop(queue)
            if sanitize:
                self._check_monotonic(time, entry[1], entry[2])
            self.now = time
            self._live -= 1
            self._processed += 1
            handle = entry[4]
            if handle is not None:
                handle.fired = True
                if sanitize:
                    self._handles.pop(entry[1], None)
            entry[2](*entry[3])
            fired += 1
        if until is not None and self._live == 0 and self.now < until:
            self.now = until
        return fired

    def advance_to(self, time: int) -> None:
        """Advance the clock to ``time`` without firing events.

        Only valid when no pending event lies at or before ``time``; used
        by components that account for idle periods.
        """
        if time < self.now:
            raise ValueError(f"cannot move clock backwards (time={time}, now={self.now})")
        next_time = self.peek_time()
        if next_time is not None and next_time <= time:
            raise SimulationError(
                f"advance_to({time}) would skip a pending event at t={next_time}"
            )
        self.now = time

    def _check_monotonic(self, time: int, seq: int, fn: Callable[..., Any]) -> None:
        """Sanitize mode: an event about to fire must not lie in the past."""
        if time < self.now:
            raise SanitizerError(
                "virtual-time-monotonicity",
                "event would fire in the past",
                {
                    "event_time": time,
                    "now": self.now,
                    "seq": seq,
                    "fn": getattr(fn, "__qualname__", repr(fn)),
                },
            )

    def drain_check(self) -> None:
        """Sanitize mode: verify engine bookkeeping at a drained queue.

        Call after :meth:`run` returned with no pending events.  Raises
        :class:`~repro.core.sanitize.SanitizerError` when an
        :class:`EventHandle` is still outstanding (it never fired and was
        never cancelled even though the heap is empty -- the heap and the
        handle accounting diverged), when the live counter disagrees with
        the heap, or when cancelled sequence numbers outlived their heap
        entries.
        """
        if not self._sanitize:
            return
        live_in_queue = sum(
            1 for entry in self._queue if entry[1] not in self._cancelled
        )
        if live_in_queue != self._live:
            raise SanitizerError(
                "event-accounting",
                "live-event counter disagrees with the heap",
                {"counter": self._live, "heap": live_in_queue},
            )
        if self._queue:
            return  # not drained: pending events legitimately remain
        leaked = [
            self._handles[seq]
            for seq in sorted(self._handles)
            if self._handles[seq].pending
        ]
        if leaked:
            sample = leaked[0]
            raise SanitizerError(
                "event-handle-leak",
                f"{len(leaked)} handle(s) neither fired nor cancelled at drain",
                {
                    "first_seq": sample.seq,
                    "first_time": sample.time,
                    "first_fn": getattr(sample.fn, "__qualname__", repr(sample.fn)),
                },
            )
        if self._cancelled:
            raise SanitizerError(
                "event-accounting",
                "cancelled sequence numbers outlived their heap entries",
                {"count": len(self._cancelled)},
            )

    def power_cycle_purge(
        self, device_prefixes: tuple[str, ...], shift_ns: int
    ) -> tuple[int, int]:
        """Crash-consistency support: drop device events, delay host events.

        A power loss destroys all device-side state, including every
        scheduled continuation of the controller, flash array and
        reliability layers; host-side events (thread timers, OS restarts)
        survive but cannot make progress until the device has remounted.
        Classification is by the ``__module__`` of the event callable --
        closures and bound methods both carry their defining module.

        Entries whose callable's module starts with one of
        ``device_prefixes`` are discarded; every other live entry is
        shifted ``shift_ns`` into the future (the outage plus mount
        window).  Cancelled entries are physically removed.  Returns
        ``(dropped, shifted)`` counts.
        """
        if shift_ns < 0:
            raise ValueError(f"shift_ns must be >= 0 (got {shift_ns})")
        dropped = 0
        survivors: list[tuple] = []
        for entry in self._queue:
            time, seq, fn, args, handle = entry
            if seq in self._cancelled:
                continue  # physically drop stale cancelled entries
            module = getattr(fn, "__module__", "") or ""
            if module.startswith(device_prefixes):
                dropped += 1
                if handle is not None:
                    handle.cancelled = True
                    if self._sanitize:
                        self._handles.pop(seq, None)
                continue
            if handle is not None:
                handle.time = time + shift_ns
            survivors.append((time + shift_ns, seq, fn, args, handle))
        self._cancelled.clear()
        self._live = len(survivors)
        heapq.heapify(survivors)
        self._queue[:] = survivors
        return dropped, self._live

    def _cancel(self, seq: int) -> None:
        """Mark a queued entry cancelled (called by EventHandle.cancel)."""
        self._cancelled.add(seq)
        self._live -= 1
        if self._sanitize:
            self._handles.pop(seq, None)
        if (
            len(self._cancelled) >= _COMPACT_MIN_CANCELLED
            and len(self._cancelled) * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Physically remove cancelled entries once they dominate the heap.

        Mutates the queue list in place: :meth:`run` holds a reference to
        it across callbacks, so it must stay the same object.
        """
        cancelled = self._cancelled
        self._queue[:] = [entry for entry in self._queue if entry[1] not in cancelled]
        heapq.heapify(self._queue)
        cancelled.clear()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
