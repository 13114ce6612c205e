"""Live views of a running experiment job (paper Figure 2, text-mode).

EagleTree's demo graphs metrics while the simulator runs.  This module
renders the service-side equivalent from :class:`~repro.service.jobs.
JobStatus` snapshots, so it needs no access to the worker thread --
anything that can poll ``service.status(job_id)`` can drive it:

* :func:`render_job` -- a terminal panel: progress bar, cache hit/miss
  counters, a per-cell metric table and a sparkline trend per metric.
* :func:`render_job_html` / :func:`write_html` -- the same content as a
  static HTML page (self-refreshing while the job runs), the artifact
  CI uploads and browsers watch.
* :func:`watch` -- the polling loop: full-screen redraw on a TTY, one
  appended table row per completed cell on plain streams (logs, CI).
"""

from __future__ import annotations

import html
import sys
import time
from pathlib import Path
from types import MappingProxyType
from typing import IO, Optional, Sequence

from repro.analysis.reporting import IncrementalTable, format_event_log, sparkline
from repro.core import units
from repro.service.jobs import CellState, ExperimentService, JobStatus

__all__ = ["render_job", "render_job_html", "watch", "write_html"]

#: Lifecycle events shown under the panel (the tail of the job log).
EVENT_TAIL = 4

#: Default metric columns: the demo's throughput / latency / GC story.
DEFAULT_METRICS = (
    "throughput_iops",
    "write_mean_ns",
    "write_p99_ns",
    "write_amplification",
)

_STATE_GLYPHS = MappingProxyType({
    CellState.PENDING: ".",
    CellState.CACHED: "c",
    CellState.COMPUTED: "#",
    CellState.FAILED: "!",
    CellState.SKIPPED: "-",
})


def _source(cell) -> str:
    """Where a completed cell's summary came from (table "src" column)."""
    return "cache" if cell.state is CellState.CACHED else "run"


def _progress_bar(status: JobStatus, width: int = 32) -> str:
    filled = round(status.done_fraction * width)
    return "[" + "#" * filled + "." * (width - filled) + "]"


def _metric_text(value: float, metric: str) -> str:
    if metric.endswith("_ns"):
        return units.format_time(round(value))
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:,.2f}"


def _completed_cells(status: JobStatus) -> list:
    return [cell for cell in status.cells if cell.summary is not None]


def cell_table(
    status: JobStatus, metrics: Sequence[str] = DEFAULT_METRICS
) -> IncrementalTable:
    """The per-cell metric table for ``status`` (completed cells only)."""
    table = IncrementalTable(["cell", "src"] + list(metrics), min_width=10)
    for cell in _completed_cells(status):
        row = [cell.label, _source(cell)] + [
            _metric_text(cell.summary.get(metric, 0.0), metric) for metric in metrics
        ]
        table.add_row(row)
    return table


def render_job(
    status: JobStatus,
    metrics: Sequence[str] = DEFAULT_METRICS,
    width: int = 32,
) -> str:
    """The full terminal panel for one status snapshot."""
    lines = [
        f"== {status.name} ({status.job_id}) ==",
        (
            f"state {status.state.value:<11} {_progress_bar(status, width)} "
            f"{status.completed_cells}/{status.total_cells} cells  "
            f"cache {status.cache_hits} hit / {status.cache_misses} miss"
            f"  {status.elapsed_s:.1f}s"
        ),
        "cells " + "".join(_STATE_GLYPHS[cell.state] for cell in status.cells),
    ]
    if status.error:
        lines.append(f"error: {status.error}")
    if status.events:
        lines.append(format_event_log(status.events, tail=EVENT_TAIL))
    completed = _completed_cells(status)
    if completed:
        lines.append("")
        lines.append(cell_table(status, metrics).render())
        lines.append("")
        for metric in metrics:
            series = [cell.summary.get(metric, 0.0) for cell in completed]
            lines.append(f"{metric:<22} {sparkline(series)}")
    return "\n".join(lines)


def render_job_html(
    status: JobStatus, metrics: Sequence[str] = DEFAULT_METRICS
) -> str:
    """A static HTML page of the same panel.

    Self-contained (inline CSS, no scripts beyond a ``meta refresh``
    that stops once the job is terminal), so it can be written next to
    the results and opened from anywhere.
    """
    refresh = (
        "" if status.state.terminal else '<meta http-equiv="refresh" content="2">'
    )
    glyphs = "".join(
        f'<span class="cell {cell.state.value}" title="{html.escape(cell.label)}: '
        f'{cell.state.value}"></span>'
        for cell in status.cells
    )
    header_cells = "".join(
        f"<th>{html.escape(name)}</th>" for name in ["cell", "src"] + list(metrics)
    )
    body_rows = []
    for cell in _completed_cells(status):
        source = _source(cell)
        values = "".join(
            f"<td>{html.escape(_metric_text(cell.summary.get(metric, 0.0), metric))}</td>"
            for metric in metrics
        )
        body_rows.append(
            f"<tr><td>{html.escape(cell.label)}</td>"
            f'<td class="{source}">{source}</td>{values}</tr>'
        )
    percent = round(status.done_fraction * 100)
    error = (
        f'<p class="error">{html.escape(status.error)}</p>' if status.error else ""
    )
    events = ""
    if status.events:
        items = "".join(
            f"<li>{html.escape(line)}</li>" for line in status.events[-EVENT_TAIL:]
        )
        events = f'<ul class="events">{items}</ul>'
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
{refresh}
<title>{html.escape(status.name)} ({html.escape(status.job_id)})</title>
<style>
  body {{ font-family: ui-monospace, monospace; margin: 2rem; color: #222; }}
  .bar {{ background: #eee; width: 24rem; height: 1rem; }}
  .bar > div {{ background: #4a7; height: 100%; width: {percent}%; }}
  .cell {{ display: inline-block; width: .7rem; height: .7rem; margin: 1px; background: #ddd; }}
  .cell.cached {{ background: #58c; }}
  .cell.computed {{ background: #4a7; }}
  .cell.failed {{ background: #c44; }}
  .cell.skipped {{ background: #aaa; }}
  table {{ border-collapse: collapse; margin-top: 1rem; }}
  td, th {{ border: 1px solid #ccc; padding: .25rem .6rem; text-align: right; }}
  td.cache {{ color: #58c; }} td.run {{ color: #4a7; }}
  .error {{ color: #c44; }}
  .events {{ color: #666; list-style: none; padding-left: 0; font-size: .85rem; }}
</style>
</head>
<body>
<h1>{html.escape(status.name)} <small>({html.escape(status.job_id)})</small></h1>
<p>state <strong>{status.state.value}</strong> &mdash;
{status.completed_cells}/{status.total_cells} cells &mdash;
cache {status.cache_hits} hit / {status.cache_misses} miss &mdash;
{status.elapsed_s:.1f}s</p>
<div class="bar"><div></div></div>
<p>{glyphs}</p>
{error}
{events}
<table>
<thead><tr>{header_cells}</tr></thead>
<tbody>
{chr(10).join(body_rows)}
</tbody>
</table>
</body>
</html>
"""


def write_html(
    status: JobStatus,
    path: "str | Path",
    metrics: Sequence[str] = DEFAULT_METRICS,
) -> None:
    Path(path).write_text(render_job_html(status, metrics), encoding="utf-8")


def watch(
    service: ExperimentService,
    job_id: str,
    *,
    interval: float = 0.5,
    stream: Optional[IO[str]] = None,
    metrics: Sequence[str] = DEFAULT_METRICS,
    html_path: "str | Path | None" = None,
    timeout: Optional[float] = None,
) -> JobStatus:
    """Tail a job until it finishes; returns the final status.

    On a TTY the panel redraws in place (ANSI clear) every ``interval``
    seconds.  On plain streams (files, CI logs) it degrades to
    append-only output: the table header once, one row per newly
    completed cell, then the final summary panel -- so logs stay
    readable.  ``html_path`` additionally rewrites the static HTML view
    on every poll.
    """
    out = stream if stream is not None else sys.stdout
    interactive = bool(getattr(out, "isatty", lambda: False)())
    table = IncrementalTable(["cell", "src"] + list(metrics), min_width=10)
    printed_header = False
    reported = 0
    deadline = None if timeout is None else time.monotonic() + timeout
    while True:
        status = service.status(job_id)
        if html_path is not None:
            write_html(status, html_path, metrics)
        if interactive:
            out.write("\x1b[2J\x1b[H" + render_job(status, metrics) + "\n")
        else:
            completed = _completed_cells(status)
            if completed and not printed_header:
                for line in table.header_lines():
                    out.write(line + "\n")
                printed_header = True
            for cell in completed[reported:]:
                row = [cell.label, _source(cell)] + [
                    _metric_text(cell.summary.get(metric, 0.0), metric)
                    for metric in metrics
                ]
                out.write(table.add_row(row) + "\n")
            reported = len(_completed_cells(status))
        out.flush()
        if status.state.terminal:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        time.sleep(interval)
    if not interactive:
        out.write("\n" + render_job(status, metrics) + "\n")
        out.flush()
    return status
