"""The experiment service: the paper's live demo, production-grade.

EagleTree's headline artifact (Figure 2) is a demo that runs
configurations and graphs metrics live.  This subsystem is the
server-side version of that loop -- the first serving-shaped layer on
the road from batch sweeps to continuous experiment traffic:

* :mod:`repro.service.cache` -- a content-addressed result store: each
  materialised :class:`~repro.core.parallel.RunSpec` hashes (with a
  code-version fingerprint) to a SHA-256 key under which its summary is
  persisted, so repeated sweep cells are served from disk and a config
  or code change re-runs only the invalidated cells.  A small per-job
  manifest (``<root>/jobs/<job_id>.json``) lists a job's cell keys.
* :mod:`repro.service.jobs` -- :class:`ExperimentService`, the async
  runner: ``submit(specs | grid) -> job_id``, ``status``, ``results``,
  ``cancel`` and ``resume``, with PR 5's timeout/retry hardening
  underneath.  Every cell is cached before it is reported, so a killed
  campaign resumes bit-identically: ``resume(job_id)`` rebuilds the
  job's specs from its manifest and runs them against the cache, where
  the finished cells are ordinary hits.
* :mod:`repro.service.dashboard` -- live terminal and static-HTML views
  of a running job.
* ``python -m repro.service`` -- submit a grid from the command line,
  watch it, resume interrupted jobs, and warm/inspect/verify/repair the
  cache.
"""

from repro.service.cache import (
    CachedResult,
    CacheIntegrityError,
    CacheWriteError,
    ResultCache,
    default_cache_root,
)
from repro.service.dashboard import render_job, render_job_html, watch, write_html
from repro.service.jobs import (
    CellState,
    CellStatus,
    ExperimentService,
    JobFailedError,
    JobState,
    JobStatus,
    ResumeMismatchError,
    UnknownJobError,
    run_to_completion,
)

__all__ = [
    "CacheIntegrityError",
    "CacheWriteError",
    "CachedResult",
    "CellState",
    "CellStatus",
    "ExperimentService",
    "JobFailedError",
    "JobState",
    "JobStatus",
    "ResultCache",
    "ResumeMismatchError",
    "UnknownJobError",
    "default_cache_root",
    "render_job",
    "render_job_html",
    "run_to_completion",
    "watch",
    "write_html",
]
