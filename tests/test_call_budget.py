"""Python-call budget of the simulator's per-IO path.

Each case runs a small workload and profiles its measured phase with
cProfile, counting only calls into files under ``src/repro``: standard
library, numpy and interpreter differences between Python versions drop
out, and the counts are exact for a given seed.  A change that makes an
IO cost more simulator calls than the budget fails here.

Simulator calls miss the numpy work a call does (a whole-LUN scan is
one simulator call), so some cases also budget their numpy calls: the
entries of the ``numpy`` package's Python files plus the builtin
``numpy.ufunc`` / ``numpy.ndarray`` methods.  Those counts depend on the
numpy version (its Python wrappers change between releases).

Re-measure after a deliberate change (the budget is the count per IO,
rounded up to a tenth)::

    PYTHONPATH=src python -c "from tests.test_call_budget import measure, CASES; \\
        print({name: measure(name) for name in CASES})"
    PYTHONPATH=src python -c "from tests.test_call_budget import measure_numpy, \\
        NUMPY_BUDGETS; print({name: measure_numpy(name) for name in NUMPY_BUDGETS})"
"""

from __future__ import annotations

import cProfile
import functools
import math
import pstats
from pathlib import Path

import numpy
import pytest

import repro
from repro import FtlKind, Simulation, small_config
from repro.core import units
from repro.workloads import (
    RandomReaderThread,
    RandomWriterThread,
    Thread,
    TraceReplayThread,
    generate_poisson_trace,
    precondition_sequential,
)

_REPRO_ROOT = Path(repro.__file__).resolve().parent
_NUMPY_ROOT = Path(numpy.__file__).resolve().parent


#: CMT entries of the DFTL cases: far fewer than the logical pages their
#: random IOs cover, so most IOs miss and fetch a translation page.
_DFTL_CMT_ENTRIES = 256


def _in_repro(filename: str) -> bool:
    return Path(filename).resolve().is_relative_to(_REPRO_ROOT)


def _is_numpy(filename: str, function: str) -> bool:
    if filename == "~":  # a builtin: cProfile names only its type
        return "of 'numpy.ufunc' objects" in function or "of 'numpy.ndarray' objects" in function
    return Path(filename).resolve().is_relative_to(_NUMPY_ROOT)


class _Marker(Thread):
    """Runs ``action`` when it starts, then finishes at once."""

    def __init__(self, name, action):
        super().__init__(name)
        self.action = action

    def on_init(self, ctx) -> None:
        self.action()
        ctx.finish()


#: Open-loop arrivals of the ``page_open_loop`` case: a 70% read mix at
#: 6k IOPS, each record issued by ``TraceReplayThread._fire`` on time.
_OPEN_LOOP_TRACE = generate_poisson_trace(
    rate_iops=6_000.0,
    duration_ns=units.milliseconds(300),
    logical_pages=small_config(seed=3).logical_pages,
    read_fraction=0.7,
    seed=3,
)


#: name -> (FTL, measured-thread factory, measured IOs, calls-per-IO budget).
CASES = {
    "page_read": (
        FtlKind.PAGE,
        lambda: RandomReaderThread("measured", count=3_000, depth=8),
        3_000,
        # 92.5 before the flash-command lifecycle rework, 77.8 before
        # statistics stored one row per IO, 67.8 before the leaner
        # phase path and block-bound programs, 63.2 before block
        # operations became ``Lun`` methods taking a block id, 61.2
        # before a command finding the device idle started without a
        # dispatch scan.
        61.1,
    ),
    "page_gc_write": (
        FtlKind.PAGE,
        lambda: RandomWriterThread("measured", count=2_000, depth=8),
        2_000,
        # 321.4 before statistics stored one row per IO, 309.1 before
        # the leaner phase path and block-bound programs, 282.8 before
        # GC kept an index of fully-dead blocks, 271.3 before block
        # operations became ``Lun`` methods.
        242.8,
    ),
    "dftl_read": (
        FtlKind.DFTL,
        lambda: RandomReaderThread("measured", count=3_000, depth=8),
        3_000,
        # 105.7 before the FTLs shared one logical-IO path, 105.6 before
        # statistics stored one row per IO, 95.6 before the leaner phase
        # path and block-bound programs, 88.3 before block operations
        # became ``Lun`` methods, 85.2 before a command finding the
        # device idle started without a dispatch scan.
        85.1,
    ),
    "hybrid_write": (
        FtlKind.HYBRID,
        lambda: RandomWriterThread("measured", count=300, depth=32),
        300,
        # 750.2 before the flash-command lifecycle rework, 643.5 before
        # statistics stored one row per IO, 627.9 before merges ran as
        # one slotted job, 519.6 before log appends, merge order and the
        # merge commit each had one path, 514.2 before merges read the
        # victim block without building a page view per page, 499.1
        # before block operations became ``Lun`` methods, 453.0 before a
        # command finding the device idle started without a dispatch
        # scan.
        430.3,
    ),
    "dftl_write": (
        FtlKind.DFTL,
        # Dirty CMT evictions write translation pages, and GC relocates
        # them.
        lambda: RandomWriterThread("measured", count=2_000, depth=8),
        2_000,
        # 434.8 before translation pages took the shared write and
        # relocation path, 431.1 before block operations became ``Lun``
        # methods, 385.9 before a command finding the device idle started
        # without a dispatch scan.
        385.8,
    ),
    "page_open_loop": (
        FtlKind.PAGE,
        lambda: TraceReplayThread("measured", _OPEN_LOOP_TRACE, timed=True),
        len(_OPEN_LOOP_TRACE),
        # 131.1 before the host lost its strict-admission path, which
        # made no simulator call per arrival, and before block
        # operations became ``Lun`` methods, 120.2 before a command
        # finding the device idle started without a dispatch scan.
        119.3,
    ),
}


#: name -> numpy-calls-per-IO budget, for cases whose numpy work matters.
NUMPY_BUDGETS = {
    # 24.5 before GC kept an index of fully-dead blocks: erase-only
    # reclaim scanned the LUN at every invalidated page.
    "page_gc_write": 4.8,
}


@functools.lru_cache(maxsize=None)
def _profile(name: str) -> pstats.Stats:
    """The cProfile statistics of one case's measured phase."""
    ftl, make_thread, _, _ = CASES[name]
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
    return pstats.Stats(profiler)


def _per_io(name: str, counted) -> float:
    calls = sum(
        entry[1]
        for (filename, _line, function), entry in _profile(name).stats.items()
        if counted(filename, function)
    )
    return math.ceil(calls / CASES[name][2] * 10) / 10


def measure(name: str) -> float:
    """Simulator calls per measured IO of one case."""
    return _per_io(name, lambda filename, _function: _in_repro(filename))


def measure_numpy(name: str) -> float:
    """Numpy calls per measured IO of one case."""
    return _per_io(name, _is_numpy)


@pytest.mark.parametrize("name", sorted(CASES))
def test_calls_per_io_within_budget(name):
    budget = CASES[name][3]
    assert measure(name) <= budget


@pytest.mark.parametrize("name", sorted(NUMPY_BUDGETS))
def test_numpy_calls_per_io_within_budget(name):
    assert measure_numpy(name) <= NUMPY_BUDGETS[name]
