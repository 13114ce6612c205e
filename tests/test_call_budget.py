"""Python-call budget of the simulator's per-IO path.

Each case runs a small workload and profiles its measured phase with
cProfile, counting only calls into files under ``src/repro``: standard
library, numpy and interpreter differences between Python versions drop
out, and the counts are exact for a given seed.  A change that makes an
IO cost more simulator calls than the budget fails here.

Re-measure after a deliberate change (the budget is the count per IO,
rounded up to a tenth)::

    PYTHONPATH=src python -c "from tests.test_call_budget import measure, CASES; \\
        print({name: measure(name) for name in CASES})"
"""

from __future__ import annotations

import cProfile
import math
import pstats
from pathlib import Path

import pytest

import repro
from repro import FtlKind, Simulation, small_config
from repro.workloads import (
    RandomReaderThread,
    RandomWriterThread,
    Thread,
    precondition_sequential,
)

_REPRO_ROOT = Path(repro.__file__).resolve().parent


#: CMT entries of the DFTL case: far fewer than the logical pages its
#: random reads cover, so most reads miss and fetch a translation page.
_DFTL_CMT_ENTRIES = 256


def _in_repro(filename: str) -> bool:
    return Path(filename).resolve().is_relative_to(_REPRO_ROOT)


class _Marker(Thread):
    """Runs ``action`` when it starts, then finishes at once."""

    def __init__(self, name, action):
        super().__init__(name)
        self.action = action

    def on_init(self, ctx) -> None:
        self.action()
        ctx.finish()


#: name -> (FTL, measured-thread factory, measured IOs, calls-per-IO budget).
CASES = {
    "page_read": (
        FtlKind.PAGE,
        lambda: RandomReaderThread("measured", count=3_000, depth=8),
        3_000,
        # 92.5 before the flash-command lifecycle rework, 77.8 before
        # statistics stored one row per IO, 67.8 before the leaner
        # phase path and block-bound programs.
        63.2,
    ),
    "page_gc_write": (
        FtlKind.PAGE,
        lambda: RandomWriterThread("measured", count=2_000, depth=8),
        2_000,
        # 321.4 before statistics stored one row per IO, 309.1 before
        # the leaner phase path and block-bound programs.
        282.8,
    ),
    "dftl_read": (
        FtlKind.DFTL,
        lambda: RandomReaderThread("measured", count=3_000, depth=8),
        3_000,
        # 105.7 before the FTLs shared one logical-IO path, 105.6 before
        # statistics stored one row per IO, 95.6 before the leaner phase
        # path and block-bound programs.
        88.3,
    ),
    "hybrid_write": (
        FtlKind.HYBRID,
        lambda: RandomWriterThread("measured", count=300, depth=32),
        300,
        # 750.2 before the flash-command lifecycle rework, 643.5 before
        # statistics stored one row per IO, 627.9 before merges ran as
        # one slotted job.
        519.6,
    ),
}


def measure(name: str) -> float:
    """Simulator calls per measured IO of one case."""
    ftl, make_thread, ios, _ = CASES[name]
    config = small_config(seed=3)
    config.controller.ftl = ftl
    if ftl is FtlKind.DFTL:
        config.controller.dftl.cmt_entries = _DFTL_CMT_ENTRIES
    simulation = Simulation(config)
    profiler = cProfile.Profile()
    fill = precondition_sequential(config.logical_pages)
    simulation.add_thread(fill, collect_stats=False)
    simulation.add_thread(
        _Marker("start", profiler.enable), depends_on=[fill.name], collect_stats=False
    )
    simulation.add_thread(make_thread(), depends_on=["start"])
    simulation.add_thread(
        _Marker("end", profiler.disable), depends_on=["measured"], collect_stats=False
    )
    simulation.run()
    calls = sum(
        entry[1]
        for (filename, _line, _function), entry in pstats.Stats(profiler).stats.items()
        if _in_repro(filename)
    )
    return math.ceil(calls / ios * 10) / 10


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_io_within_budget(name):
    budget = CASES[name][3]
    assert measure(name) <= budget
