"""The abstract thread class and a reusable windowed-IO base.

A thread interacts with the operating system purely through its
:class:`~repro.host.operating_system.ThreadContext`:

* ``on_init(ctx)`` is called by the OS when the thread starts (after its
  dependencies finished);
* ``on_io_completed(ctx, io)`` is called for every completion of an IO
  this thread issued;
* within either method the thread may issue any number of IOs, arm
  timers (``ctx.schedule``), send open-interface messages, or declare
  itself done (``ctx.finish``).

:class:`GeneratorThread` captures the dominant pattern -- keep a window
of ``depth`` asynchronous IOs in flight, drawing the next operation from
a subclass -- so concrete workloads only implement :meth:`next_io`.
``depth=1`` gives fully synchronous behaviour (the paper's question "How
should we submit synchronous and asynchronous IOs?" becomes a parameter
sweep over ``depth``).
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.core.events import IoRequest, IoType, WriteHints
from repro.host.operating_system import ThreadContext

#: An operation produced by a generator workload.
Op = tuple[IoType, int, Optional[WriteHints]]


class Thread(abc.ABC):
    """The paper's abstract thread class (init / call_back)."""

    def __init__(self, name: str):
        self.name = name

    @abc.abstractmethod
    def on_init(self, ctx: ThreadContext) -> None:
        """Called once by the OS when the thread is initialised."""

    def on_io_completed(self, ctx: ThreadContext, io: IoRequest) -> None:
        """Called every time an IO originating from this thread
        completes.  Default: do nothing."""


class GeneratorThread(Thread):
    """Keeps ``depth`` IOs in flight, pulling operations from
    :meth:`next_io` until it returns None; then finishes.

    ``think_time_ns`` inserts a virtual compute delay between an IO's
    completion and the issue of its replacement -- the application is
    then not purely IO-bound (paper: "How should we submit synchronous
    and asynchronous IOs?" has a third axis: how fast can we submit).

    Backpressure: when a bounded host pool (``overload.host_queue_bound``)
    is full, the issued IO completes with ``BUSY`` through
    :meth:`on_io_completed` like any other completion, and the freed
    slot is refilled with the next operation.
    """

    def __init__(self, name: str, depth: int = 4, think_time_ns: int = 0):
        super().__init__(name)
        if depth < 1:
            raise ValueError("depth must be >= 1")
        if think_time_ns < 0:
            raise ValueError("think_time_ns must be >= 0")
        self.depth = depth
        self.think_time_ns = think_time_ns
        self.in_flight = 0
        self._exhausted = False

    @abc.abstractmethod
    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        """The next operation as ``(io_type, lpn, hints)`` or None when
        the workload is exhausted."""

    def on_init(self, ctx: ThreadContext) -> None:
        for _ in range(self.depth):
            if not self._pump(ctx):
                break

    def on_io_completed(self, ctx: ThreadContext, io: IoRequest) -> None:
        self.in_flight -= 1
        if self.think_time_ns > 0:
            ctx.schedule(self.think_time_ns, self._pump, ctx)
        else:
            self._pump(ctx)

    def _pump(self, ctx: ThreadContext) -> bool:
        """Issue one more IO if available; finish when drained."""
        if not self._exhausted:
            op = self.next_io(ctx)
            if op is None:
                self._exhausted = True
            else:
                io_type, lpn, hints = op
                if io_type is IoType.READ:
                    ctx.read(lpn, hints)
                elif io_type is IoType.WRITE:
                    ctx.write(lpn, hints)
                else:
                    ctx.trim(lpn, hints)
                self.in_flight += 1
                return True
        if self._exhausted and self.in_flight == 0:
            ctx.finish()
        return False
