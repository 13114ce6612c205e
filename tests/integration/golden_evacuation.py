"""Golden fixtures for every kind of block evacuation.

The other goldens barely run garbage collection, and never the rarer
evacuation kinds.  ``tests/fixtures/golden_evacuation.json`` pins one
traced run per kind: static wear leveling (page FTL and DFTL), cross-LUN
rebalancing, program-failure condemnation,
idle-time collection, erase-only reclaim of fully dead blocks, and
read+program relocation with ``gc_same_lun`` off.  Each scenario pins
the :func:`repro.core.statistics.serialize_summary` digest, the digest of
``TraceRecorder.render()`` (IO ids rebased as in
:mod:`tests.core.test_trace_golden`) and the collector's and wear
leveler's unkeyed counters, and must drive its own counter above zero.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src python -m tests.integration.golden_evacuation
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable

from repro import FtlKind, Simulation, small_config
from repro.core import units
from repro.core.config import AllocationPolicy, SimulationConfig
from repro.core.events import IoType
from repro.core.statistics import serialize_summary
from repro.workloads import (
    RandomWriterThread,
    SequentialWriterThread,
    Thread,
    precondition_sequential,
)
from repro.workloads.threads import GeneratorThread

from tests.core.test_trace_golden import _rebase_ids

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "golden_evacuation.json"
)

#: ``(module, attribute)`` of every pinned counter, keyed by its name.
COUNTERS = {
    "copyback_relocations": ("gc", "copyback_relocations"),
    "relocated_pages": ("gc", "relocated_pages"),
    "balancing_jobs": ("gc", "balancing_jobs"),
    "erase_only_reclaims": ("gc", "erase_only_reclaims"),
    "idle_jobs": ("gc", "idle_jobs"),
    "condemned_retirements": ("gc", "condemned_retirements"),
    "migrated_pages": ("wear_leveler", "migrated_pages"),
}


class _ListWriter(GeneratorThread):
    """Writes the given LPNs in order, ``rounds`` times over."""

    def __init__(self, name: str, lpns: list[int], rounds: int, depth: int = 8):
        super().__init__(name, depth=depth)
        self._lpns = iter([lpn for _ in range(rounds) for lpn in lpns])

    def next_io(self, ctx):
        lpn = next(self._lpns, None)
        return None if lpn is None else (IoType.WRITE, lpn, None)


def _base(seed: int = 7) -> SimulationConfig:
    config = small_config(seed=seed)
    config.trace_enabled = True
    return config


def _wear_leveling(ftl: FtlKind) -> tuple[SimulationConfig, Callable]:
    config = _base()
    config.controller.ftl = ftl
    wl = config.controller.wear_leveling
    wl.check_interval_erases = 8
    wl.erase_count_threshold = 0
    wl.idle_factor = 0.1

    def threads(pages: int) -> list[Thread]:
        hot = pages // 8
        return [SequentialWriterThread("hot", count=12 * hot, region=(0, hot), depth=8)]

    return config, threads


def wl_page():
    return _wear_leveling(FtlKind.PAGE)


def wl_dftl():
    return _wear_leveling(FtlKind.DFTL)


def rebalance():
    # The sequential fill puts every ``luns``-th page on LUN 0; rewriting
    # them round-robin piles live data onto the other LUNs until a LUN
    # holds no block with a dead page.  (A STRIPE hotspot never gets
    # there: each rewrite kills a page on the LUN it lands on.)
    config = _base()
    config.controller.allocation = AllocationPolicy.ROUND_ROBIN
    luns = config.geometry.total_luns

    def threads(pages: int) -> list[Thread]:
        stripe = [lpn for lpn in range(pages) if lpn % luns == 0]
        return [_ListWriter("stripe", stripe, rounds=6, depth=32)]

    return config, threads


def condemn():
    config = _base()
    reliability = config.reliability
    reliability.enabled = True
    reliability.program_fail_probability = 0.01
    reliability.spare_blocks_per_lun = 2

    def threads(pages: int) -> list[Thread]:
        return [RandomWriterThread("writer", count=3000, depth=8)]

    return config, threads


def idle():
    config = _base()
    config.controller.gc_idle_target = 6
    config.controller.gc_idle_threshold_ns = units.microseconds(500)

    def threads(pages: int) -> list[Thread]:
        return [RandomWriterThread("writer", count=1500, depth=8)]

    return config, threads


def erase_only():
    config = _base()

    def threads(pages: int) -> list[Thread]:
        return [SequentialWriterThread("rewrite", count=3 * pages, depth=8)]

    return config, threads


def read_program():
    config = _base()
    config.controller.gc_same_lun = False

    def threads(pages: int) -> list[Thread]:
        return [RandomWriterThread("writer", count=3000, depth=8)]

    return config, threads


#: scenario -> (builder, the counter the scenario exists to drive).
SCENARIOS: dict[str, tuple[Callable, str]] = {
    "wl_page": (wl_page, "migrated_pages"),
    "wl_dftl": (wl_dftl, "migrated_pages"),
    "rebalance": (rebalance, "balancing_jobs"),
    "condemn": (condemn, "condemned_retirements"),
    "idle": (idle, "idle_jobs"),
    "erase_only": (erase_only, "erase_only_reclaims"),
    "read_program": (read_program, "relocated_pages"),
}


def run_scenario(name: str) -> dict[str, object]:
    """Summary digest, render digest and counters of one scenario."""
    config, make_threads = SCENARIOS[name][0]()
    simulation = Simulation(config)
    fill = precondition_sequential(config.logical_pages)
    simulation.add_thread(fill)
    for thread in make_threads(config.logical_pages):
        simulation.add_thread(thread, depends_on=[fill.name])
    result = simulation.run()
    assert not result.incomplete, f"{name} left outstanding IOs"
    controller = simulation.controller
    return {
        "summary_sha256": hashlib.sha256(
            serialize_summary(result.summary()).encode()
        ).hexdigest(),
        "render_sha256": hashlib.sha256(
            _rebase_ids(simulation.tracer.render()).encode()
        ).hexdigest(),
        "counters": {
            key: getattr(getattr(controller, module), attribute)
            for key, (module, attribute) in COUNTERS.items()
        },
    }


def main() -> None:
    fixtures = {name: run_scenario(name) for name in SCENARIOS}
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixtures)} evacuation goldens to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
