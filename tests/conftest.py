"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from typing import Iterable, Optional

import pytest

from repro import Simulation, SimulationConfig, small_config
from repro.core.simulation import SimulationResult
from repro.workloads import precondition_sequential


def pbn(lun, block_id: int) -> int:
    """The global block id of ``lun``'s block ``block_id``: the index of
    its per-block metadata in ``lun.state`` (``live_count``, ...)."""
    return lun.lun_index * lun.blocks_per_lun + block_id


@pytest.fixture
def config() -> SimulationConfig:
    """A fresh small configuration (mutate freely)."""
    return small_config()


def run_workload(
    config: SimulationConfig,
    threads: Iterable,
    precondition: bool = False,
    max_time_ns: Optional[int] = None,
    check: bool = True,
) -> SimulationResult:
    """Build a simulation, run the threads (optionally after filling the
    device sequentially), check invariants and completion, and return the
    result.  The Simulation object is attached as ``result.simulation``.
    """
    simulation = Simulation(config)
    depends: list[str] = []
    if precondition:
        prep = precondition_sequential(config.logical_pages)
        simulation.add_thread(prep)
        depends = [prep.name]
    for thread in threads:
        simulation.add_thread(thread, depends_on=depends)
    result = simulation.run(max_time_ns=max_time_ns)
    result.simulation = simulation
    if check:
        simulation.controller.check_invariants()
        assert simulation.os.all_finished, "some thread never finished"
        assert not result.incomplete, "IOs were still outstanding at the end"
    return result
