"""Structured IO traces (paper Section 2.3).

EagleTree's experiment suite emits "massive visual traces showing exactly
how every IO was handled throughout the simulator components".  This
module records one :class:`TraceRecord` per interesting event at every
layer, supports filtering, and renders a textual trace (the terminal
counterpart of the demo's visual trace panel) or a CSV export.

Tracing is off by default (``SimulationConfig.trace_enabled``) because
full traces are memory-heavy for long runs.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.core import units


@dataclass(frozen=True)
class TraceRecord:
    """One event in the life of an IO or internal operation."""

    time_ns: int
    layer: str  # "thread" | "os" | "controller" | "hardware" | "reliability"
    event: str  # e.g. "issue", "dispatch", "start", "complete"
    detail: str  # free-form, e.g. "read lpn=12 -> (c0,l1,b3,p7)"

    def format(self) -> str:
        return (
            f"{units.format_time(self.time_ns):>12}  "
            f"{self.layer:<10} {self.event:<10} {self.detail}"
        )


class TraceRecorder:
    """Collects :class:`TraceRecord` objects when enabled.

    The recorder is shared by all layers; each layer calls
    :meth:`record` with its layer name.  When disabled, recording is a
    no-op with negligible cost.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._records: list[TraceRecord] = []

    def record(self, time_ns: int, layer: str, event: str, detail: str) -> None:
        if not self.enabled:
            return
        self._records.append(TraceRecord(time_ns, layer, event, detail))

    @property
    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    def filter(
        self,
        layer: Optional[str] = None,
        event: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Records matching the given layer/event/custom predicate."""
        result: Iterable[TraceRecord] = self._records
        if layer is not None:
            result = (r for r in result if r.layer == layer)
        if event is not None:
            result = (r for r in result if r.event == event)
        if predicate is not None:
            result = (r for r in result if predicate(r))
        return list(result)

    def render(self, limit: Optional[int] = None) -> str:
        """Human-readable trace text; ``limit`` keeps the last N records."""
        records = self._records if limit is None else self._records[-limit:]
        header = f"-- trace ({len(records)} of {len(self._records)} records) --"
        return "\n".join([header] + [record.format() for record in records])

    def to_csv(self, path: str) -> None:
        """Export all records to a CSV file."""
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time_ns", "layer", "event", "detail"])
            for record in self._records:
                writer.writerow([record.time_ns, record.layer, record.event, record.detail])
