"""``python -m repro.service``: the experiment service from a shell.

Submit a full-factorial grid to the :class:`~repro.service.jobs.
ExperimentService`, watch it live, and manage the content-addressed
result cache.  Re-running the same command is (almost) free: every cell
already in the cache is served from disk -- and every run records a job
manifest in the cache, so a run that dies (OOM kill, preemption, ctrl-C)
is *resumable*: the completed cells are cache hits and only the
remainder executes.

Examples::

    # 16-cell grid, live dashboard, results cached under ~/.cache
    python -m repro.service run \\
        --axis controller.gc_greediness=1,2,3,4 \\
        --axis host.max_outstanding=4,8,16,32 --ios 2000

    # the run above was killed?  finish it -- finished cells are
    # served from the cache byte-identically, zero re-runs
    python -m repro.service resume job-0001

    # inspect / audit / heal the store
    python -m repro.service cache stats
    python -m repro.service cache verify     # exit 1 if corrupt entries
    python -m repro.service cache repair     # quarantine corrupt entries
    python -m repro.service cache clear

``--cache-dir`` (or ``$REPRO_CACHE_DIR``) relocates the store (job
manifests live in its ``jobs/`` directory); ``--no-cache`` runs uncached,
and such a run cannot be resumed.
``--expect-min-hit-rate 0.9`` turns the run into an assertion (CI's
warm-pass gate).  On SIGINT/SIGTERM the service checkpoints at the next
cell boundary and exits 130 with a resume hint; a second signal force
quits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

from repro.core.statistics import serialize_summary
from repro.service.cache import ResultCache
from repro.service.dashboard import DEFAULT_METRICS, render_job, watch, write_html
from repro.service.grids import grid_manifest, grid_specs, parse_axis
from repro.service.jobs import (
    ExperimentService,
    JobState,
    JobStatus,
    ResumeMismatchError,
)

#: The paper-demo default: GC greediness x host queue depth, 16 cells.
DEFAULT_AXES = (
    "controller.gc_greediness=1,2,3,4",
    "host.max_outstanding=4,8,16,32",
)


def _add_execution_arguments(command: argparse.ArgumentParser) -> None:
    """Flags shared by ``run`` and ``resume`` (how cells execute and
    how the job is displayed/reported)."""
    command.add_argument(
        "--workers", default="1",
        help="worker processes per job: a number or 'auto' (one per CPU)",
    )
    command.add_argument(
        "--timeout", type=float, default=None,
        help="per-cell wall-clock limit in seconds (workers > 1 only)",
    )
    command.add_argument("--retries", type=int, default=0, help="per-cell retry budget")
    command.add_argument(
        "--stall-timeout", type=float, default=None, metavar="S",
        help="kill a run whose event counter freezes for S seconds "
             "(hung, not merely slow; workers > 1 only)",
    )
    command.add_argument("--cache-dir", default=None, help="result-store directory")
    command.add_argument(
        "--no-cache", action="store_true", help="run without the result store"
    )
    command.add_argument(
        "--no-watch", action="store_true",
        help="skip the live dashboard; print only the final panel",
    )
    command.add_argument("--interval", type=float, default=0.5,
                         help="dashboard refresh (s)")
    command.add_argument("--html", default=None, metavar="FILE",
                         help="also write the static HTML dashboard here")
    command.add_argument("--json", default=None, metavar="FILE",
                         help="write a machine-readable job report here")
    command.add_argument(
        "--metrics", default=",".join(DEFAULT_METRICS),
        help="comma-separated summary metrics to display",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="submit a grid and watch it")
    run.add_argument(
        "--axis", action="append", default=None, metavar="PATH=V1,V2,...",
        help="swept configuration axis; repeatable "
             f"(default: {' + '.join(DEFAULT_AXES)})",
    )
    run.add_argument("--ios", type=int, default=2000, help="IOs per grid cell")
    run.add_argument(
        "--base", choices=["small", "demo"], default="small",
        help="base configuration preset",
    )
    run.add_argument("--seed", type=int, default=42)
    _add_execution_arguments(run)
    run.add_argument(
        "--expect-min-hit-rate", type=float, default=None, metavar="R",
        help="exit non-zero unless cache hits / cells >= R (CI gate)",
    )

    resume = commands.add_parser(
        "resume", help="finish an interrupted job against the cache"
    )
    resume.add_argument("job_id", help="the job id printed by the killed run")
    _add_execution_arguments(resume)

    cache = commands.add_parser("cache", help="inspect or heal the result store")
    cache.add_argument("action", choices=["stats", "clear", "path", "verify", "repair"])
    cache.add_argument("--cache-dir", default=None, help="result-store directory")
    cache.add_argument(
        "--all-versions", action="store_true",
        help="clear/verify/repair: also entries from older code fingerprints",
    )
    return parser


def _workers(text: str) -> "int | str":
    return text if text == "auto" else int(text)


def _build_service(args: argparse.Namespace) -> ExperimentService:
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    if cache is not None:
        print(f"cache {cache.root} (version {cache.fingerprint[:16]})")
    return ExperimentService(
        cache=cache,
        workers=_workers(args.workers),
        timeout=args.timeout,
        retries=args.retries,
        stall_timeout=args.stall_timeout,
    )


def _install_signal_handlers(service: ExperimentService) -> None:
    """First SIGINT/SIGTERM: checkpoint at the next cell boundary and
    mark the job INTERRUPTED (resumable).  Second: force quit."""
    seen = {"count": 0}

    def handler(signum: int, frame: object) -> None:
        seen["count"] += 1
        if seen["count"] > 1:
            os._exit(130)
        name = signal.Signals(signum).name
        print(
            f"\n{name}: checkpointing at the next cell boundary "
            "(signal again to force quit)",
            file=sys.stderr,
        )
        service.interrupt(wait=False)

    signal.signal(signal.SIGINT, handler)
    signal.signal(signal.SIGTERM, handler)


def _drive(service: ExperimentService, job_id: str,
           args: argparse.Namespace, metrics: list[str]) -> JobStatus:
    """Watch (or silently wait for) the job; never re-raise on ctrl-C."""
    if args.no_watch:
        status = service.wait(job_id)
        if args.html:
            write_html(status, args.html, metrics)
        print(render_job(status, metrics))
        return status
    return watch(
        service, job_id, interval=args.interval,
        metrics=metrics, html_path=args.html,
    )


def _write_report(service: ExperimentService, status: JobStatus,
                  path: str) -> None:
    report = {
        "job_id": status.job_id,
        "name": status.name,
        "state": status.state.value,
        "total_cells": status.total_cells,
        "completed_cells": status.completed_cells,
        "cache_hits": status.cache_hits,
        "cache_misses": status.cache_misses,
        "elapsed_s": round(status.elapsed_s, 3),
        "events": list(status.events),
        "cells": [
            {
                "label": cell.label,
                "state": cell.state.value,
                "summary": cell.summary,
                # Canonical bytes -- what resume bit-identity compares.
                "summary_text": (
                    serialize_summary(cell.summary) if cell.summary else None
                ),
            }
            for cell in status.cells
        ],
        "cache": service.cache_stats(),
    }
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"-> {path}")


def _epilogue(service: ExperimentService, status: JobStatus,
              args: argparse.Namespace) -> int:
    """Shared run/resume exit path: report, resume hint, exit code."""
    if args.json:
        _write_report(service, status, args.json)
    if status.state is JobState.INTERRUPTED:
        print(
            f"job {status.job_id} interrupted at "
            f"{status.completed_cells}/{status.total_cells} cells; "
            f"finish it with: python -m repro.service resume {status.job_id}",
            file=sys.stderr,
        )
        return 130
    if status.state is not JobState.DONE:
        print(f"job ended {status.state.value}: {status.error or ''}", file=sys.stderr)
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    axes = [parse_axis(text) for text in (args.axis or list(DEFAULT_AXES))]
    specs = grid_specs(axes, ios=args.ios, base=args.base, seed=args.seed)
    metrics = [name.strip() for name in args.metrics.split(",") if name.strip()]

    axis_names = " x ".join(path for path, _ in axes)
    print(f"grid {axis_names}: {len(specs)} cells, {args.ios} IOs each")

    service = _build_service(args)
    _install_signal_handlers(service)
    with service:
        job_id = service.submit(
            specs,
            name=f"grid {axis_names}",
            grid=grid_manifest(axes, ios=args.ios, base=args.base, seed=args.seed),
        )
        print(f"job {job_id}")
        status = _drive(service, job_id, args, metrics)

    code = _epilogue(service, status, args)
    if code:
        return code
    if args.expect_min_hit_rate is not None:
        rate = status.cache_hits / status.total_cells if status.total_cells else 0.0
        if rate < args.expect_min_hit_rate:
            print(
                f"cache hit rate {rate:.0%} below required "
                f"{args.expect_min_hit_rate:.0%}",
                file=sys.stderr,
            )
            return 1
        print(f"cache hit rate {rate:.0%} (>= {args.expect_min_hit_rate:.0%})")
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    if args.no_cache:
        print("resume runs the job against the cache (drop --no-cache)", file=sys.stderr)
        return 2
    metrics = [name.strip() for name in args.metrics.split(",") if name.strip()]
    service = _build_service(args)
    _install_signal_handlers(service)
    with service:
        try:
            job_id = service.resume(args.job_id)
        except ResumeMismatchError as error:
            print(error, file=sys.stderr)
            return 2
        print(f"resuming {job_id}: {service.status(job_id).total_cells} cells")
        status = _drive(service, job_id, args, metrics)

    code = _epilogue(service, status, args)
    if code:
        return code
    print(f"resumed: {status.cache_hits} cells from cache, {status.cache_misses} computed")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "path":
        print(cache.root)
        return 0
    if args.action == "clear":
        removed = cache.clear(all_versions=args.all_versions)
        scope = "all versions" if args.all_versions else f"version {cache.fingerprint[:16]}"
        print(f"removed {removed} entries ({scope})")
        return 0
    if args.action in ("verify", "repair"):
        if args.action == "verify":
            report = cache.verify(all_versions=args.all_versions)
        else:
            report = cache.repair(all_versions=args.all_versions)
        for key in ("checked", "ok", "repaired", "quarantined"):
            if key in report:
                print(f"{key:<12}: {report[key]}")
        corrupt = report["corrupt"]
        for path in corrupt:
            print(f"corrupt     : {path}", file=sys.stderr)
        if args.action == "verify" and corrupt:
            print(
                f"{len(corrupt)} corrupt entries -- run "
                "'python -m repro.service cache repair' to quarantine them",
                file=sys.stderr,
            )
            return 1
        return 0
    stats = cache.stats()
    width = max(len(key) for key in stats)
    for key in sorted(stats):
        print(f"{key:<{width}} : {stats[key]}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "resume":
        return cmd_resume(args)
    return cmd_cache(args)


if __name__ == "__main__":
    raise SystemExit(main())
