"""Crash/resume proof: SIGKILL a sweep mid-run, resume, compare bytes.

The acceptance test for checkpoint/resume: a child process runs a
cached campaign and is SIGKILLed (no cleanup, no atexit -- the same
failure mode as an OOM kill) once it has published at least one cache
entry.  A fresh service then resumes the job against the cache and must
(a) serve every cell published before the kill as a cache hit, running
only the rest, and (b) finish the grid with summaries byte-identical to
an uninterrupted run.
"""

import contextlib
import functools
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import RunSpec, small_config
from repro.core.statistics import serialize_summary
from repro.service import CellState, ExperimentService, JobState, ResultCache
from repro.service.grids import mixed_workload

ROOT = Path(__file__).parents[2]

#: Three quick cells (cached fast, so the kill lands after real
#: progress) then three gated ones (so the child cannot finish before
#: the parent kills it).
IOS_PLAN = (300, 300, 300, 12_000, 12_000, 12_000)
QUICK_CELLS = 3


def gated_workload(config, ios, gate):
    """``mixed_workload`` that first waits until the file ``gate``
    exists; the test opens the gate after the kill."""
    while not os.path.exists(gate):
        time.sleep(0.01)
    return mixed_workload(config, ios=ios)


def build_specs(gate: str) -> list:
    specs = []
    for index, ios in enumerate(IOS_PLAN):
        config = small_config()
        config.controller.gc_greediness = 1 + index % 4
        if index < QUICK_CELLS:
            workload = functools.partial(mixed_workload, ios=ios)
        else:
            workload = functools.partial(gated_workload, ios=ios, gate=gate)
        specs.append(
            RunSpec(
                config=config,
                workload=workload,
                index=index,
                label=f"cell-{index}",
            )
        )
    return specs


CHILD_SCRIPT = """
import json, sys
from repro.service import ExperimentService, ResultCache
from tests.service.test_resume import build_specs

service = ExperimentService(cache=ResultCache(sys.argv[1]), **json.loads(sys.argv[3]))
job_id = service.submit(build_specs(sys.argv[2]))
print(job_id, flush=True)
service.wait(job_id)
"""


@pytest.mark.parametrize(
    "child_options",
    [{}, {"workers": 2, "stall_timeout": 30.0, "retries": 1}],
    ids=["serial", "hardened-pool"],
)
def test_sigkilled_sweep_resumes_bit_identically(tmp_path, child_options):
    cache_dir = tmp_path / "cache"
    gate = tmp_path / "gate"
    version_dir = ResultCache(cache_dir).path_for("x").parent

    def published() -> set:
        return {path.stem for path in version_dir.glob("*.json")}

    # --- the doomed campaign ---------------------------------------
    child = subprocess.Popen(
        [
            sys.executable, "-c", CHILD_SCRIPT,
            str(cache_dir), str(gate), json.dumps(child_options),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])},
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 120.0
        while not published():
            if child.poll() is not None:
                pytest.fail(
                    "child exited before caching a cell:\n"
                    + child.communicate()[1]
                )
            if time.monotonic() > deadline:
                pytest.fail("child cached no cell in 120s")
            time.sleep(0.01)
        assert child.poll() is None, "child finished before it could be killed"
        os.kill(child.pid, signal.SIGKILL)
    finally:
        # Also reap what the kill orphaned (pool workers), or the child
        # itself when an assertion fired first.
        with contextlib.suppress(ProcessLookupError):  # group already gone
            os.killpg(child.pid, signal.SIGKILL)
        child.communicate(timeout=30)  # reaps it and closes the pipes
        gate.touch()  # lets the gated cells run from here on

    killed_at = published()
    assert 1 <= len(killed_at) < len(IOS_PLAN), "kill landed mid-sweep"

    # --- the uninterrupted reference -------------------------------
    baseline = [
        serialize_summary(spec.execute().summary()) for spec in build_specs(str(gate))
    ]

    # --- resume in a fresh process (this one) ----------------------
    cache = ResultCache(cache_dir)
    with ExperimentService(cache=cache) as service:
        job_id = service.resume("job-0001", work=build_specs(str(gate)))
        results = service.results(job_id)
        status = service.status(job_id)

    assert status.state is JobState.DONE
    # Every cell published before the kill was a hit; none re-ran.
    assert status.cache_hits == len(killed_at)
    assert status.cache_misses == len(IOS_PLAN) - len(killed_at)
    for spec, cell in zip(build_specs(str(gate)), status.cells):
        if cache.key_for(spec) in killed_at:
            assert cell.state is CellState.CACHED
    # Byte-for-byte identical to the run that was never interrupted.
    assert [serialize_summary(r.summary()) for r in results] == baseline

    # The cache now covers the whole grid: resuming again runs nothing.
    with ExperimentService(cache=ResultCache(cache_dir)) as service:
        job_id = service.resume("job-0001", work=build_specs(str(gate)))
        service.results(job_id)
        final = service.status(job_id)
    assert final.cache_hits == len(IOS_PLAN)
    assert final.cache_misses == 0
