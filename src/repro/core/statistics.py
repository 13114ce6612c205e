"""Statistics gathering (paper Section 2.3).

EagleTree produces "graphs showing how performance metrics (e.g.,
throughput, latency, latency variability) evolved with respect to the
given parameter or policy, as well as graphs showing how various metrics
evolved across time".  It also allows attaching "statistics gathering
objects to an individual thread to measure its performance".

This module provides both:

* :class:`LatencyRecorder` -- streaming latency statistics with exact
  percentiles computed on demand.
* :class:`TimeSeries` -- counts bucketed over virtual time, for the
  metrics-over-time graphs.
* :class:`StatisticsGatherer` -- the aggregate attached to the whole
  simulation and, separately, to individual threads.  It stores each
  completed IO once, as a row of timestamps, and derives its latency
  recorders and time series from the rows when they are read.
"""

from __future__ import annotations

import json
import numbers
from array import array
from collections import Counter
from typing import Mapping, Optional, Union

import numpy as np

from repro.core import units
from repro.core.events import IoRequest, IoType


class LatencyRecorder:
    """Streaming collection of latency samples (integer nanoseconds).

    Samples live in an ``array('q')`` rather than a list of boxed Python
    integers: recording is one C-level append, memory is 8 bytes per
    sample, and the derived statistics (stddev, percentiles) run
    vectorised over a zero-copy numpy view.  The summary dictionary is
    cached until the next sample arrives, because experiment tables ask
    for it once per metric.

    A numpy view pins the array's buffer, and ``array`` raises
    ``BufferError`` if asked to grow while one is alive: every view is
    made and dropped inside the method that needs it.
    """

    __slots__ = ("_samples", "_sum", "_summary")

    def __init__(self) -> None:
        self._samples = array("q")
        self._sum = 0
        self._summary: Optional[dict[str, float]] = None

    @classmethod
    def _from_array(cls, samples: np.ndarray) -> "LatencyRecorder":
        """A recorder holding the int64 ``samples``, as if recorded in order."""
        recorder = cls()
        recorder._samples.frombytes(memoryview(samples).cast("B"))
        recorder._sum = int(samples.sum())
        return recorder

    def record(self, latency_ns: int) -> None:
        if latency_ns < 0:
            raise ValueError(f"negative latency {latency_ns}")
        self._samples.append(latency_ns)
        self._sum += latency_ns
        self._summary = None

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    @property
    def minimum(self) -> int:
        return min(self._samples, default=0)

    @property
    def maximum(self) -> int:
        return max(self._samples, default=0)

    @property
    def stddev(self) -> float:
        """Population standard deviation -- the paper's "latency
        variability" metric."""
        if len(self._samples) < 2:
            return 0.0
        return float(np.std(np.frombuffer(self._samples, dtype=np.int64)))

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0..100) of recorded samples."""
        if not self._samples:
            return 0.0
        return float(np.percentile(np.frombuffer(self._samples, dtype=np.int64), q))

    def samples(self) -> list[int]:
        """A copy of the raw samples (for histograms and plots)."""
        return self._samples.tolist()

    def merge(self, other: "LatencyRecorder") -> None:
        """Fold ``other``'s samples into this recorder."""
        if not other._samples:
            return
        self._samples.extend(other._samples)
        self._sum += other._sum
        self._summary = None

    def summary(self) -> dict[str, float]:
        if self._summary is None:
            self._summary = {
                "count": self.count,
                "mean_ns": self.mean,
                "stddev_ns": self.stddev,
                "min_ns": float(self.minimum),
                "p50_ns": self.percentile(50),
                "p95_ns": self.percentile(95),
                "p99_ns": self.percentile(99),
                "max_ns": float(self.maximum),
            }
        return dict(self._summary)

    def describe(self) -> str:
        if not self._samples:
            return "no samples"
        return (
            f"n={self.count} mean={units.format_time(round(self.mean))} "
            f"p50={units.format_time(round(self.percentile(50)))} "
            f"p99={units.format_time(round(self.percentile(99)))} "
            f"max={units.format_time(self.maximum)} "
            f"sd={units.format_time(round(self.stddev))}"
        )


class TimeSeries:
    """Event counts bucketed over virtual time.

    Used for the "metrics across time" graphs: completions per window,
    GC activity per window, and so on.
    """

    def __init__(self, bucket_ns: int = 10 * units.MILLISECOND) -> None:
        if bucket_ns <= 0:
            raise ValueError("bucket_ns must be positive")
        self.bucket_ns = bucket_ns
        self._buckets: Counter[int] = Counter()

    @classmethod
    def _from_times(
        cls, bucket_ns: int, times: np.ndarray, amounts: Optional[np.ndarray] = None
    ) -> "TimeSeries":
        """The series that :meth:`add` builds from ``times`` with
        ``amounts`` (int64, summed exactly), or with 1.0 each."""
        series = cls(bucket_ns)
        buckets, inverse, counts = np.unique(
            times // bucket_ns, return_inverse=True, return_counts=True
        )
        if amounts is None:
            totals = counts.astype(np.float64)
        else:
            totals = np.zeros(len(buckets), dtype=np.int64)
            np.add.at(totals, inverse, amounts)
        series._buckets = Counter(dict(zip(buckets.tolist(), totals.tolist())))
        return series

    def add(self, time_ns: int, amount: float = 1.0) -> None:
        self._buckets[time_ns // self.bucket_ns] += amount

    def series(self) -> list[tuple[int, float]]:
        """Dense ``(bucket_start_ns, count)`` pairs from 0 to the last
        recorded bucket."""
        if not self._buckets:
            return []
        last_bucket = max(self._buckets)
        return [
            (bucket * self.bucket_ns, self._buckets.get(bucket, 0.0))
            for bucket in range(0, last_bucket + 1)
        ]

    def rate_per_second(self) -> list[tuple[int, float]]:
        """Like :meth:`series` but scaled to events per second."""
        scale = units.SECOND / self.bucket_ns
        return [(t, v * scale) for t, v in self.series()]


#: The columns of a :class:`StatisticsGatherer` row: an IO's issue,
#: dispatch and completion times.
_ISSUE, _DISPATCH, _COMPLETE = range(3)
#: A row's value for a timestamp the IO never got.  Virtual time starts
#: at 0, so no real timestamp reads -1.
_UNSET = -1


class StatisticsGatherer:
    """Aggregated per-simulation (or per-thread) statistics.

    One gatherer is attached to the whole simulation; additional gatherers
    may be attached to individual threads (Section 2.3) and receive only
    that thread's IO completions.

    A completed IO is stored once, as a row: its issue, dispatch and
    completion times (``-1`` where unset), appended to three
    ``array('q')`` columns of its IO type.  The latency recorders and
    time series are derived from the rows on every read and never
    cached, so a gatherer holds 24 bytes per IO however often it is read.
    """

    def __init__(self, name: str = "global", bucket_ns: int = 10 * units.MILLISECOND) -> None:
        if bucket_ns <= 0:
            raise ValueError("bucket_ns must be positive")
        self.name = name
        self.bucket_ns = bucket_ns
        #: Issue, dispatch and completion columns by ``IoType`` value.
        self._rows = {t._value_: (array("q"), array("q"), array("q")) for t in IoType}
        #: The columns' bound appends, so :meth:`record_io` looks up no method.
        self._appends = {
            key: tuple(column.append for column in columns) for key, columns in self._rows.items()
        }
        #: Flash command counts keyed by (source_name, kind_name).
        self.flash_commands: Counter[tuple[str, str]] = Counter()
        #: Completion times of GC and wear-leveling programs and copybacks.
        self._gc_times = array("q")
        #: Reliability events (corrected reads, retries, rebuilds,
        #: retirements, ...) keyed by event kind.
        self.reliability_events: Counter[str] = Counter()
        self.first_completion_ns: Optional[int] = None
        self.last_completion_ns: Optional[int] = None
        #: Cached :meth:`summary` dict; recording anything invalidates it.
        self._summary_cache: Optional[dict[str, float]] = None

    # ------------------------------------------------------------------
    # Recording hooks
    # ------------------------------------------------------------------
    def record_io(self, io: IoRequest) -> None:
        """Record a completed logical IO as one row.

        The end-to-end latency needs an issue time, the device latency a
        dispatch time and the OS wait both; a negative one is an error.
        """
        complete = io.complete_time
        if complete is None:
            raise ValueError(f"{io!r} has not completed")
        issue = io.issue_time
        dispatch = io.dispatch_time
        if issue is None:
            issue = _UNSET
        elif issue > complete:
            raise ValueError(f"negative latency {complete - issue}")
        if dispatch is None:
            dispatch = _UNSET
        elif dispatch > complete:
            raise ValueError(f"negative latency {complete - dispatch}")
        elif dispatch < issue:
            raise ValueError(f"negative latency {dispatch - issue}")
        self._summary_cache = None
        if self.first_completion_ns is None:
            self.first_completion_ns = complete
        self.last_completion_ns = complete
        append_issue, append_dispatch, append_complete = self._appends[io.io_type._value_]
        append_issue(issue)
        append_dispatch(dispatch)
        append_complete(complete)

    def record_flash_command(self, source_name: str, kind_name: str, time_ns: int) -> None:
        """Record a completed flash command (controller layer hook)."""
        self.flash_commands[(source_name, kind_name)] += 1
        self._summary_cache = None
        if source_name in ("GC", "WEAR_LEVELING") and kind_name in ("PROGRAM", "COPYBACK"):
            self._gc_times.append(time_ns)

    def record_reliability_event(self, kind: str) -> None:
        """Record a reliability-subsystem event (controller layer hook)."""
        self.reliability_events[kind] += 1

    # ------------------------------------------------------------------
    # Views derived from the rows
    # ------------------------------------------------------------------
    def _column(self, io_type: IoType, column: int) -> np.ndarray:
        """A zero-copy view of one column: drop it before the next append."""
        return np.frombuffer(self._rows[io_type._value_][column], dtype=np.int64)

    def _spans(self, io_type: IoType, start: int, end: int) -> tuple[np.ndarray, np.ndarray]:
        """``end - start`` of the rows of ``io_type`` that set both, in
        recording order, and those rows' completion times (possibly a
        column view: drop it before the next append)."""
        first, last = self._column(io_type, start), self._column(io_type, end)
        spans = last - first
        complete = self._column(io_type, _COMPLETE)
        # Only a column holding a negative value can hold the sentinel.
        if first.min(initial=0) < 0 or last.min(initial=0) < 0:
            both = (first != _UNSET) & (last != _UNSET)
            return spans[both], complete[both]
        return spans, complete

    def _recorder(self, io_type: IoType, start: int, end: int) -> LatencyRecorder:
        return LatencyRecorder._from_array(self._spans(io_type, start, end)[0])

    def _recorders(self, start: int, end: int) -> dict[IoType, LatencyRecorder]:
        return {t: self._recorder(t, start, end) for t in IoType}

    @property
    def latency(self) -> dict[IoType, LatencyRecorder]:
        """End-to-end latency by IO type."""
        return self._recorders(_ISSUE, _COMPLETE)

    @property
    def device_latency(self) -> dict[IoType, LatencyRecorder]:
        """Device-internal latency by IO type."""
        return self._recorders(_DISPATCH, _COMPLETE)

    @property
    def os_wait(self) -> dict[IoType, LatencyRecorder]:
        """OS queueing time by IO type."""
        return self._recorders(_ISSUE, _DISPATCH)

    @property
    def completions_over_time(self) -> dict[IoType, TimeSeries]:
        """Completions over time, by IO type."""
        return {
            t: TimeSeries._from_times(self.bucket_ns, self._column(t, _COMPLETE)) for t in IoType
        }

    @property
    def latency_sum_over_time(self) -> dict[IoType, TimeSeries]:
        """End-to-end latency summed by completion bucket (divide by
        :attr:`completions_over_time` for the mean per bucket)."""
        series = {}
        for t in IoType:
            spans, complete = self._spans(t, _ISSUE, _COMPLETE)
            series[t] = TimeSeries._from_times(self.bucket_ns, complete, spans)
        return series

    @property
    def gc_activity_over_time(self) -> TimeSeries:
        """GC and wear-leveling pages programmed over time."""
        return TimeSeries._from_times(
            self.bucket_ns, np.frombuffer(self._gc_times, dtype=np.int64)
        )

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def completed_ios(self) -> int:
        return sum(len(columns[_COMPLETE]) for columns in self._rows.values())

    def completed(self, io_type: IoType) -> int:
        """IOs of ``io_type`` with an end-to-end latency (issued ones)."""
        return int(np.count_nonzero(self._column(io_type, _ISSUE) != _UNSET))

    def throughput_iops(self) -> float:
        """Completed IOs per second of virtual time over the measured span."""
        if (
            self.first_completion_ns is None
            or self.last_completion_ns is None
            or self.last_completion_ns <= self.first_completion_ns
        ):
            return 0.0
        span = self.last_completion_ns - self.first_completion_ns
        return self.completed_ios * units.SECOND / span

    def write_amplification(self) -> float:
        """Total flash programs (incl. copybacks) / application programs."""
        app = self.flash_commands.get(("APPLICATION", "PROGRAM"), 0)
        if app == 0:
            return 0.0
        total = sum(
            count
            for (_, kind), count in self.flash_commands.items()
            if kind in ("PROGRAM", "COPYBACK")
        )
        return total / app

    def _latency_figures(self, io_type: IoType) -> tuple[float, ...]:
        """Count, mean, p99 and stddev of the end-to-end latency of
        ``io_type``, and its mean device latency.  One recorder is alive
        at a time, so a summary read at the end of a run holds at most
        one type's samples on top of the rows."""
        latency = self._recorder(io_type, _ISSUE, _COMPLETE)
        figures = (
            float(latency.count), latency.mean, latency.percentile(99), latency.stddev
        )
        del latency
        return figures + (self._recorder(io_type, _DISPATCH, _COMPLETE).mean,)

    def summary(self) -> dict[str, float]:
        """Flat metric dictionary -- the rows experiment tables report."""
        if self._summary_cache is not None:
            return dict(self._summary_cache)
        reads, read_mean, read_p99, read_stddev, read_device_mean = self._latency_figures(
            IoType.READ
        )
        writes, write_mean, write_p99, write_stddev, write_device_mean = (
            self._latency_figures(IoType.WRITE)
        )
        self._summary_cache = {
            "completed_ios": float(self.completed_ios),
            "completed_reads": reads,
            "completed_writes": writes,
            "throughput_iops": self.throughput_iops(),
            "read_mean_ns": read_mean,
            "read_p99_ns": read_p99,
            "read_stddev_ns": read_stddev,
            "write_mean_ns": write_mean,
            "write_p99_ns": write_p99,
            "write_stddev_ns": write_stddev,
            "read_device_mean_ns": read_device_mean,
            "write_device_mean_ns": write_device_mean,
            "write_amplification": self.write_amplification(),
            "erases": float(
                sum(c for (_, kind), c in self.flash_commands.items() if kind == "ERASE")
            ),
            "gc_programs": float(self.flash_commands.get(("GC", "PROGRAM"), 0))
            + float(self.flash_commands.get(("GC", "COPYBACK"), 0)),
            "mapping_ios": float(
                sum(c for (src, _), c in self.flash_commands.items() if src == "MAPPING")
            ),
        }
        return dict(self._summary_cache)

    def report(self) -> str:
        """Multi-line human-readable report (the demo's numeric panel)."""
        lines = [f"== statistics: {self.name} =="]
        lines.append(f"completed IOs : {self.completed_ios}")
        lines.append(f"throughput    : {self.throughput_iops():,.0f} IOPS")
        latency = self.latency
        for io_type in (IoType.READ, IoType.WRITE):
            recorder = latency[io_type]
            if recorder.count:
                lines.append(f"{io_type.value:<5} latency : {recorder.describe()}")
        waf = self.write_amplification()
        if waf:
            lines.append(f"write amp.    : {waf:.2f}")
        if self.flash_commands:
            per_source: Counter[str] = Counter()
            for (source, kind), count in sorted(self.flash_commands.items()):
                per_source[source] += count
                lines.append(f"flash {source.lower():<14}{kind.lower():<9}: {count}")
        if self.reliability_events:
            for kind, count in sorted(self.reliability_events.items()):
                lines.append(f"reliability {kind:<17}: {count}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# Round-trippable summary serialization
# ----------------------------------------------------------------------
#
# The experiment service persists result summaries to an on-disk cache
# and promises that a cache hit is *bit-identical* to a fresh run.  That
# only holds if serialization is deterministic (sorted keys, one float
# encoding) and lossless (floats survive a round trip exactly).  JSON
# with shortest-round-trip float repr gives both; the helpers below are
# the single sanctioned encoding, shared by the cache, ``to_csv`` and
# the benchmarks.

#: Summary values are metric numbers; ``count`` style entries stay int.
SummaryValue = Union[int, float]


def plain_number(value: object) -> SummaryValue:
    """Normalise a metric value to a built-in ``int`` or ``float``.

    Numpy scalars (``np.int64``, ``np.float64``) leak out of vectorised
    statistics; they are not JSON-serializable and their ``str`` differs
    from the built-ins' under some numpy printoptions, so every summary
    value is funnelled through here before formatting or encoding.
    """
    if isinstance(value, bool):
        raise TypeError("summary values are numbers, not booleans")
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    raise TypeError(f"summary value {value!r} is not a number")


def stable_number_text(value: object) -> str:
    """The canonical text of one metric value.

    Integers print as integers; floats print with ``repr`` -- the
    shortest string that round-trips to the exact same IEEE-754 double,
    identical on every platform and process.
    """
    return repr(plain_number(value))


def serialize_summary(summary: Mapping[str, object]) -> str:
    """Encode a metric summary as canonical JSON: keys sorted, minimal
    separators, shortest-round-trip floats, no NaN/Infinity.  Two equal
    summaries always encode to identical bytes."""
    normalised = {key: plain_number(summary[key]) for key in summary}
    return json.dumps(
        normalised, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def deserialize_summary(text: str) -> dict[str, SummaryValue]:
    """Invert :func:`serialize_summary` exactly: every float comes back
    as the identical double, every int as an int."""
    decoded = json.loads(text)
    if not isinstance(decoded, dict):
        raise ValueError("serialized summary must decode to an object")
    return {str(key): plain_number(value) for key, value in decoded.items()}
