"""Chaos smoke: SIGKILL a live campaign, resume it, audit the cache.

The executable proof of the service's crash-safety claims, and the
script CI runs as the ``chaos-smoke`` job:

1. run a reference 16-cell sweep to completion (separate store);
2. start the same sweep in a child process on the supervised pool a
   long campaign would use (``--workers 2 --stall-timeout 60
   --retries 1``), SIGKILL it once a few cells have been published to
   its cache (no cleanup, no atexit -- the OOM-killer treatment);
3. ``python -m repro.service resume`` the dead job (same flags) and
   assert
   - the grid completes,
   - every cell published before the kill was a cache hit, zero re-runs,
   - every summary is byte-identical to the uninterrupted reference;
4. resume again: nothing runs;
5. ``cache verify`` must come back clean;
6. corruption drill: truncate one cache entry and scribble over
   another, assert ``cache verify`` fails loudly, ``cache repair``
   quarantines both, and a final ``cache verify`` is clean.

Usage::

    PYTHONPATH=src python examples/chaos_smoke.py
    PYTHONPATH=src python examples/chaos_smoke.py --ios 500 --kill-after 3
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

AXES = ["controller.gc_greediness=1,2,3,4", "host.max_outstanding=4,8,16,32"]
CELLS = 16
#: Executor flags of the chaos child and its resumes; the reference
#: pass stays serial.
HARDENED = ["--workers", "2", "--stall-timeout", "60", "--retries", "1"]


def log(message: str) -> None:
    print(f"[chaos-smoke] {message}", flush=True)


def fail(message: str) -> "int":
    print(f"[chaos-smoke] FAIL: {message}", file=sys.stderr, flush=True)
    return 1


def service_cmd(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.service", *args]


def run_cli(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    process = subprocess.run(
        service_cmd(*args), capture_output=True, text=True
    )
    if check and process.returncode != 0:
        raise RuntimeError(
            f"command {' '.join(args)} exited {process.returncode}:\n"
            f"{process.stdout}\n{process.stderr}"
        )
    return process


def run_flags(work: Path, ios: int, tag: str) -> list[str]:
    flags = []
    for axis in AXES:
        flags += ["--axis", axis]
    flags += [
        "--ios", str(ios),
        "--cache-dir", str(work / f"cache-{tag}"),
        "--no-watch",
        "--json", str(work / f"report-{tag}.json"),
    ]
    return flags


def published_entries(version_dir: Path) -> list[Path]:
    """Cache entries published so far (each is complete: the cache
    writes a tmp file and renames it into place)."""
    return sorted(version_dir.glob("*.json"))


def resume(work: Path, report: str) -> dict:
    run_cli(
        "resume", "job-0001",
        "--cache-dir", str(work / "cache-chaos"),
        "--no-watch",
        "--json", str(work / report),
        *HARDENED,
    )
    return json.loads((work / report).read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ios", type=int, default=2000, help="IOs per cell")
    parser.add_argument(
        "--kill-after", type=int, default=3,
        help="SIGKILL the child once this many cells are cached",
    )
    parser.add_argument(
        "--work-dir", default=".chaos-smoke",
        help="scratch directory (wiped at start)",
    )
    args = parser.parse_args()

    work = Path(args.work_dir)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    # ------------------------------------------------------------------
    # 1. The uninterrupted reference.
    # ------------------------------------------------------------------
    log(f"reference pass: {CELLS} cells x {args.ios} IOs")
    run_cli("run", *run_flags(work, args.ios, "reference"))
    reference = json.loads((work / "report-reference.json").read_text())
    if reference["state"] != "done" or reference["completed_cells"] != CELLS:
        return fail(f"reference pass did not complete: {reference['state']}")

    # ------------------------------------------------------------------
    # 2. The doomed pass: SIGKILL mid-sweep.
    # ------------------------------------------------------------------
    log("chaos pass: starting the same sweep, then SIGKILL")
    # Same code, same fingerprint: the chaos store's version directory
    # has the reference store's name.
    version_dir = work / "cache-chaos" / reference["cache"]["fingerprint"][:16]
    child = subprocess.Popen(
        service_cmd("run", *run_flags(work, args.ios, "chaos"), *HARDENED),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    deadline = time.monotonic() + 300.0
    while len(published_entries(version_dir)) < args.kill_after:
        if child.poll() is not None:
            return fail("chaos child finished before it could be killed")
        if time.monotonic() > deadline:
            child.kill()
            return fail("chaos child cached no progress in 300s")
        time.sleep(0.02)
    os.kill(child.pid, signal.SIGKILL)
    # Reap the pool workers the kill orphaned (they never touch the cache).
    os.killpg(child.pid, signal.SIGKILL)
    child.wait(timeout=30)
    hits = len(published_entries(version_dir))
    log(f"SIGKILLed with {hits} cells cached")
    if not hits or hits >= CELLS:
        return fail("kill did not land mid-sweep")

    # ------------------------------------------------------------------
    # 3. Resume and compare bytes.
    # ------------------------------------------------------------------
    log("resume pass: re-running the dead job against its cache")
    resumed = resume(work, "report-resumed.json")
    if resumed["state"] != "done" or resumed["completed_cells"] != CELLS:
        return fail(f"resumed job did not complete: {resumed['state']}")
    if (resumed["cache_hits"], resumed["cache_misses"]) != (hits, CELLS - hits):
        return fail(
            f"{hits} cells were cached at the kill but the resume served "
            f"{resumed['cache_hits']} hits and ran {resumed['cache_misses']}"
        )
    # The executor publishes in spec order under every flag: the cached
    # cells are the first ``hits``.
    for position in range(hits):
        state = resumed["cells"][position]["state"]
        if state != "cached":
            return fail(f"pre-kill cell #{position} was {state} (it re-ran)")
    log(f"zero re-runs: all {hits} pre-kill cells served from the cache")

    mismatches = [
        index
        for index, (ref, res) in enumerate(
            zip(reference["cells"], resumed["cells"])
        )
        if ref["summary_text"] != res["summary_text"]
    ]
    if mismatches:
        return fail(f"summaries differ from the reference at cells {mismatches}")
    log(f"bit-identical: {CELLS}/{CELLS} summaries byte-equal to the reference")

    # ------------------------------------------------------------------
    # 4. Resuming a finished job runs nothing.
    # ------------------------------------------------------------------
    again = resume(work, "report-resumed-again.json")
    if (again["cache_hits"], again["cache_misses"]) != (CELLS, 0):
        return fail(
            f"second resume ran {again['cache_misses']} cells instead of none"
        )
    log(f"second resume: {CELLS}/{CELLS} hits, nothing ran")

    # ------------------------------------------------------------------
    # 5. The surviving store must audit clean.
    # ------------------------------------------------------------------
    verify = run_cli(
        "cache", "verify", "--cache-dir", str(work / "cache-chaos"), check=False
    )
    if verify.returncode != 0:
        return fail(f"cache verify failed after resume:\n{verify.stdout}")
    log("cache verify clean after the kill + resume")

    # ------------------------------------------------------------------
    # 6. Corruption drill: verify fails loudly, repair quarantines.
    # ------------------------------------------------------------------
    cache_dir = work / "cache-chaos"
    entries = published_entries(version_dir)
    if len(entries) < 2:
        return fail(f"expected >= 2 cache entries, found {len(entries)}")
    entries[0].write_bytes(entries[0].read_bytes()[:-30])  # truncated
    entries[1].write_text("{ scribbled over", encoding="utf-8")  # garbage
    log(f"corrupted 2 of {len(entries)} entries")

    verify = run_cli("cache", "verify", "--cache-dir", str(cache_dir), check=False)
    if verify.returncode == 0:
        return fail("cache verify passed over corrupted entries")
    log("cache verify detected the corruption (non-zero exit)")

    run_cli("cache", "repair", "--cache-dir", str(cache_dir))
    verify = run_cli("cache", "verify", "--cache-dir", str(cache_dir), check=False)
    if verify.returncode != 0:
        return fail(f"cache verify still failing after repair:\n{verify.stdout}")
    quarantined = list(cache_dir.rglob("quarantine/*.json"))
    if len(quarantined) != 2:
        return fail(f"expected 2 quarantined entries, found {len(quarantined)}")
    log("cache repair quarantined both corrupt entries; verify clean")

    log("PASS: kill/resume bit-identity, zero re-runs, integrity audit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
