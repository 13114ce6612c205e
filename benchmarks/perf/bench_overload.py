"""Overload robustness benchmark: bounded p99 vs runaway legacy queues.

Replays the same open-loop Poisson ramp against two devices:

* **legacy** -- the default unbounded simulator: every arrival queues,
  the backlog (and the admitted-IO p99) grows with offered load without
  limit;
* **robust** -- the overload subsystem armed: bounded host pool, device
  admission control, command timeouts, host retries under a deadline
  budget, degraded-mode throttling.  Excess load surfaces as rejections
  and timeouts while admitted IOs keep a bounded p99.

Both robust runs execute with the sanitizer armed -- the abort/retry
machinery must leave event accounting clean at drain.  The script also
replays the nine golden scenarios with the subsystem *disabled* and
byte-compares against the pinned fixtures: robustness must cost nothing
when off.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_overload.py
    PYTHONPATH=src python benchmarks/perf/bench_overload.py --smoke

Writes ``BENCH_overload.json`` at the repo root (override with
``--output``); a ``--smoke`` run without ``--output`` writes a temporary
file instead, so it never replaces the committed full-run report, and
prints its path.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro import Simulation, SimulationConfig, SsdGeometry
from repro.core import units
from repro.core.events import IoStatus
from repro.workloads import (
    TraceReplayThread,
    generate_poisson_trace,
    precondition_sequential,
)

_REPO_ROOT = Path(__file__).resolve().parents[2]

RATES_IOPS = [4_000, 16_000, 64_000]
SMOKE_RATES_IOPS = [4_000, 48_000]
DURATION_NS = units.milliseconds(200)
SMOKE_DURATION_NS = units.milliseconds(60)

ROBUST = dict(
    host_queue_bound=64,
    device_queue_bound=48,
    command_timeout_ns=units.milliseconds(2),
    max_retries=2,
    retry_backoff_ns=units.microseconds(200),
    io_deadline_ns=units.milliseconds(8),
    degraded_enter_pending=32,
    degraded_admission_gap_ns=units.microseconds(5),
)


def _config(robust: bool) -> SimulationConfig:
    config = SimulationConfig(
        geometry=SsdGeometry(
            channels=4,
            luns_per_channel=2,
            blocks_per_lun=32,
            pages_per_block=32,
            page_size_bytes=2048,
        ),
    )
    config.controller.overprovisioning = 0.15
    config.host.retain_completed_ios = True
    if robust:
        config.sanitize = True  # abort/retry paths audited at drain
        config.overload.enabled = True
        for key, value in ROBUST.items():
            setattr(config.overload, key, value)
    return config


def _run(rate_iops: int, duration_ns: int, robust: bool) -> dict:
    config = _config(robust)
    trace = generate_poisson_trace(
        rate_iops,
        duration_ns,
        config.logical_pages,
        read_fraction=0.5,
        seed=config.seed,
    )
    simulation = Simulation(config)
    prep = precondition_sequential(config.logical_pages)
    simulation.add_thread(prep)
    simulation.add_thread(
        TraceReplayThread("load", trace, timed=True), depends_on=[prep.name]
    )
    result = simulation.run()
    simulation.controller.check_invariants()
    assert not result.incomplete, "ramp did not drain"
    ok = [
        io.complete_time - io.issue_time
        for io in simulation.os.completed_ios
        if io.status is IoStatus.OK and io.thread_name == "load"
    ]
    summary = result.summary()
    return {
        "offered_iops": rate_iops,
        "admitted_ok": len(ok),
        "p99_ms": round(float(np.percentile(ok, 99)) / 1e6, 4),
        "backlog_high_watermark": int(summary["os_queue_high_watermark"]),
        "rejections": int(
            summary["host_rejections"]
            + summary["device_busy_rejections"]
            + summary["shed_ios"]
            + summary["throttled_ios"]
        ),
        "timeouts": int(summary["command_timeouts"]),
        "retries": int(summary["io_retries"]),
        "degraded_ms": summary["time_degraded_ms"],
    }


def _check_golden_fixtures() -> bool:
    """Disabled overload must stay byte-identical to the pinned goldens."""
    sys.path.insert(0, str(_REPO_ROOT))
    from tests.integration.golden import FIXTURE_PATH, run_scenario, scenarios

    with open(FIXTURE_PATH) as handle:
        fixtures = json.load(handle)
    for name, (config, threads) in sorted(scenarios().items()):
        assert config.overload.enabled is False
        if run_scenario(config, threads) != fixtures[name]:
            print(f"  golden MISMATCH: {name}")
            return False
    print(f"  {len(fixtures)} golden scenarios byte-identical")
    return True


def run_benchmark(rates: list[int], duration_ns: int) -> dict:
    ramp = []
    start = time.perf_counter()
    for rate in rates:
        legacy = _run(rate, duration_ns, robust=False)
        robust = _run(rate, duration_ns, robust=True)
        ramp.append({"legacy": legacy, "robust": robust})
        print(
            f"  {rate:>7} IOPS  legacy p99 {legacy['p99_ms']:>9.2f} ms "
            f"(backlog {legacy['backlog_high_watermark']:>6})   "
            f"robust p99 {robust['p99_ms']:>7.2f} ms "
            f"(rejected {robust['rejections']}, timed out {robust['timeouts']})"
        )
    elapsed = time.perf_counter() - start

    print("golden fixtures with overload disabled ...")
    golden_ok = _check_golden_fixtures()

    top = ramp[-1]
    return {
        "benchmark": "overload",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "duration_ms": duration_ns // 1_000_000,
        "ramp": ramp,
        "elapsed_seconds": round(elapsed, 2),
        "top_rate_legacy_p99_ms": top["legacy"]["p99_ms"],
        "top_rate_robust_p99_ms": top["robust"]["p99_ms"],
        "top_rate_rejections": top["robust"]["rejections"],
        "top_rate_timeouts": top["robust"]["timeouts"],
        "golden_fixtures_identical": golden_ok,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="short CI ramp (two rates, 60 ms each)")
    parser.add_argument("--output", default=None,
                        help="where to write the JSON report (default: "
                             "BENCH_overload.json at the repo root, or a "
                             "temporary file for --smoke)")
    args = parser.parse_args()
    if args.output is None and args.smoke:
        handle, args.output = tempfile.mkstemp(prefix="bench-overload-smoke-", suffix=".json")
        os.close(handle)
    elif args.output is None:
        args.output = str(_REPO_ROOT / "BENCH_overload.json")

    rates = SMOKE_RATES_IOPS if args.smoke else RATES_IOPS
    duration_ns = SMOKE_DURATION_NS if args.smoke else DURATION_NS
    print(f"overload ramp: {rates} IOPS x {duration_ns // 1_000_000} ms each ...")
    report = run_benchmark(rates, duration_ns)
    with open(args.output, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"-> {args.output}")

    top = report["ramp"][-1]
    if report["top_rate_rejections"] == 0:
        raise SystemExit("robust config rejected nothing under overload")
    if report["top_rate_timeouts"] == 0:
        raise SystemExit("robust config timed out nothing under overload")
    if not report["golden_fixtures_identical"]:
        raise SystemExit("disabled overload drifted from the golden fixtures")
    if top["robust"]["p99_ms"] * 4 > top["legacy"]["p99_ms"]:
        raise SystemExit(
            "bounded queues should keep admitted p99 far below the "
            f"unbounded device ({top['robust']['p99_ms']} vs "
            f"{top['legacy']['p99_ms']} ms)"
        )
    if top["legacy"]["backlog_high_watermark"] <= 4 * ROBUST["host_queue_bound"]:
        raise SystemExit("legacy backlog did not demonstrate runaway growth")


if __name__ == "__main__":
    main()
