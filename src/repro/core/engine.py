"""The discrete-event simulation engine.

EagleTree's defining trait (paper Section 2.1) is that the *entire* IO
stack -- application threads, operating system, SSD controller and flash
array -- runs in virtual time, so that design-space explorations with
hundreds of experiments remain tractable.  This module provides that
virtual clock.

The engine is a classic calendar queue built on :mod:`heapq`:

* Events are posted at an absolute virtual time (integer nanoseconds).
* Events posted for the same instant fire in FIFO order of posting,
  which makes every simulation fully deterministic.
* Events cannot be cancelled: a caller whose timer may go stale checks
  its own state when the event fires (idle GC's per-LUN arm token in
  :mod:`repro.controller.gc` is the pattern).

Because every simulated nanosecond flows through this queue, the hot
path is kept allocation-light: the heap stores plain tuples
``(time, seq, fn, args)`` whose ordering is resolved by fast C-level
tuple comparison on the unique ``(time, seq)`` prefix -- the comparison
never reaches the callable.

The engine knows nothing about SSDs; the layers above register plain
callables.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.core.sanitize import SanitizerError


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """A deterministic discrete-event simulator with an integer clock.

    Typical use::

        sim = Simulator()
        sim.post(100, lambda: print("fires at t=100"))
        sim.run()
    """

    __slots__ = ("now", "_seq", "_queue", "_processed", "_sanitize")

    def __init__(self, sanitize: bool = False) -> None:
        #: Current virtual time in nanoseconds.  A plain attribute, read on
        #: every event by every layer; only this class writes it.
        self.now = 0
        self._seq = 0
        #: Heap entries: (time, seq, fn, args).
        self._queue: list[tuple] = []
        self._processed = 0
        #: Sanitizer mode (:mod:`repro.core.sanitize`): verify virtual-time
        #: monotonicity on every fire.  The check is a pure observer -- a
        #: sanitized run is bit-identical to a plain one.
        self._sanitize = sanitize

    @property
    def processed_events(self) -> int:
        """Number of events that have fired so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def post(self, delay: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire ``fn(*args)`` ``delay`` nanoseconds from now.

        ``delay`` must be non-negative; a zero delay fires after all
        callbacks already queued for the current instant.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (self.now + delay, seq, fn, args))

    def post_at(self, time: int, fn: Callable[..., Any], *args: Any) -> None:
        """Fire ``fn(*args)`` at the absolute virtual ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule into the past (time={time}, now={self.now})"
            )
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._queue, (time, seq, fn, args))

    def peek_time(self) -> Optional[int]:
        """Virtual time of the next pending event, or None if none remain."""
        return self._queue[0][0] if self._queue else None

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        ``until`` is an absolute virtual time; events scheduled exactly at
        ``until`` still fire, later ones do not (and the clock is advanced
        to ``until``).  Returns the number of events fired by this call.
        """
        # The heap is touched through locals; callbacks may post freely --
        # the queue list is mutated in place.
        queue = self._queue
        heappop = heapq.heappop
        sanitize = self._sanitize
        fired = 0
        while queue:
            if max_events is not None and fired >= max_events:
                break
            time = queue[0][0]
            if until is not None and time > until:
                self.now = until
                break
            _, seq, fn, args = heappop(queue)
            if sanitize:
                self._check_monotonic(time, seq, fn)
            self.now = time
            self._processed += 1
            fn(*args)
            fired += 1
        if until is not None and not queue and self.now < until:
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
        window).  Returns ``(dropped, shifted)`` counts.
        """
        if shift_ns < 0:
            raise ValueError(f"shift_ns must be >= 0 (got {shift_ns})")
        survivors = [
            (time + shift_ns, seq, fn, args)
            for time, seq, fn, args in self._queue
            if not (getattr(fn, "__module__", "") or "").startswith(device_prefixes)
        ]
        dropped = len(self._queue) - len(survivors)
        heapq.heapify(survivors)
        self._queue[:] = survivors
        return dropped, len(survivors)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self.now}, pending={self.pending_events})"
