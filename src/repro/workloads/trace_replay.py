"""Trace replay: drive the simulator with an explicit IO trace.

Supports the two standard replay disciplines:

* **closed-loop** (``timed=False``): keep ``depth`` IOs in flight,
  issuing trace records as completions free slots -- measures device
  capability;
* **open-loop** (``timed=True``): issue each record at its recorded
  timestamp regardless of completions -- measures behaviour under a
  fixed offered load (timestamps are virtual nanoseconds relative to
  thread start).

Traces can be built programmatically or loaded from a simple CSV
(``time_ns,op,lpn`` with op in {R, W, T}).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Optional

from repro.core.events import IoType
from repro.host.operating_system import ThreadContext
from repro.workloads.threads import GeneratorThread, Op

_OP_CODES = MappingProxyType({"R": IoType.READ, "W": IoType.WRITE, "T": IoType.TRIM})


@dataclass(frozen=True, slots=True)
class TraceRecordOp:
    """One trace record: when, what, where."""

    time_ns: int
    io_type: IoType
    lpn: int


def generate_poisson_trace(
    rate_iops: float,
    duration_ns: int,
    logical_pages: int,
    read_fraction: float = 0.5,
    zipf_theta: Optional[float] = None,
    seed: int = 42,
) -> list[TraceRecordOp]:
    """Synthesise an open-loop trace with Poisson arrivals.

    Replayed with ``TraceReplayThread(..., timed=True)`` this applies a
    fixed *offered load* regardless of completions -- the input for
    latency-vs-load curves (the open-loop complement of the queue-depth
    sweep in E9).
    """
    if rate_iops <= 0:
        raise ValueError("rate_iops must be positive")
    if not 0.0 <= read_fraction <= 1.0:
        raise ValueError("read_fraction must be in [0, 1]")
    from repro.core.rng import RandomStream

    rng = RandomStream(seed, "poisson-trace")
    records: list[TraceRecordOp] = []
    time_ns = 0.0
    mean_gap_ns = 1e9 / rate_iops
    while True:
        time_ns += rng.expovariate(1.0) * mean_gap_ns
        if time_ns >= duration_ns:
            break
        if zipf_theta is not None:
            lpn = rng.zipf_index(logical_pages, zipf_theta)
        else:
            lpn = rng.randrange(logical_pages)
        io_type = IoType.READ if rng.random() < read_fraction else IoType.WRITE
        records.append(TraceRecordOp(int(time_ns), io_type, lpn))
    return records


def load_trace_csv(path: str) -> list[TraceRecordOp]:
    """Load ``time_ns,op,lpn`` records; op is one of R, W, T."""
    records = []
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            if not row or row[0].startswith("#") or row[0] == "time_ns":
                continue
            time_ns, op, lpn = int(row[0]), row[1].strip().upper(), int(row[2])
            if op not in _OP_CODES:
                raise ValueError(f"unknown trace op {op!r}")
            records.append(TraceRecordOp(time_ns, _OP_CODES[op], lpn))
    records.sort(key=lambda record: record.time_ns)
    return records


class TraceReplayThread(GeneratorThread):
    """Replays a trace closed-loop or open-loop."""

    def __init__(
        self,
        name: str,
        trace: Iterable[TraceRecordOp],
        timed: bool = False,
        depth: int = 8,
    ):
        super().__init__(name, depth=depth)
        self.trace = sorted(trace, key=lambda record: record.time_ns)
        self.timed = timed
        self._cursor = 0
        self._start_ns: Optional[int] = None
        self._outstanding_open_loop = 0

    # ------------------------------------------------------------------
    # Closed-loop: standard GeneratorThread behaviour
    # ------------------------------------------------------------------
    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if self.timed:
            return None  # open-loop issuing is timer-driven instead
        if self._cursor >= len(self.trace):
            return None
        record = self.trace[self._cursor]
        self._cursor += 1
        return (record.io_type, record.lpn, None)

    # ------------------------------------------------------------------
    # Open-loop: timers fire at recorded instants
    # ------------------------------------------------------------------
    def on_init(self, ctx: ThreadContext) -> None:
        if not self.timed:
            super().on_init(ctx)
            return
        self._start_ns = ctx.now
        if not self.trace:
            ctx.finish()
            return
        self._arm_next(ctx)

    def _arm_next(self, ctx: ThreadContext) -> None:
        assert self._start_ns is not None
        record = self.trace[self._cursor]
        due = self._start_ns + record.time_ns
        ctx.schedule(max(0, due - ctx.now), self._fire, ctx)

    def _fire(self, ctx: ThreadContext) -> None:
        record = self.trace[self._cursor]
        self._cursor += 1
        if record.io_type is IoType.READ:
            ctx.read(record.lpn)
        elif record.io_type is IoType.WRITE:
            ctx.write(record.lpn)
        else:
            ctx.trim(record.lpn)
        self._outstanding_open_loop += 1
        if self._cursor < len(self.trace):
            self._arm_next(ctx)

    def on_io_completed(self, ctx: ThreadContext, io) -> None:
        if not self.timed:
            super().on_io_completed(ctx, io)
            return
        self._outstanding_open_loop -= 1
        if self._cursor >= len(self.trace) and self._outstanding_open_loop == 0:
            ctx.finish()
