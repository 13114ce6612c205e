"""Bit-identity guarantees of the overload layer.

Two levels:

* **Disabled** (the default): no governor object exists and no code
  path changes -- pinned by the golden fixtures in tests/integration.
* **Enabled but lax**: a governor whose bounds can never trigger must
  also be bit-identical to the disabled run, because the governor
  consumes no randomness and posts timeout events only for commands
  that are actually queued past dispatch.  This is the stronger claim:
  merely *arming* robustness must not change results.
"""

from __future__ import annotations

import pytest

from repro import FtlKind, Simulation, small_config
from repro.core.statistics import serialize_summary
from repro.workloads import MixedWorkloadThread, RandomWriterThread

FTLS = ("page", "dftl", "hybrid")

#: Summary keys that may legitimately differ between a disabled and an
#: armed-but-lax run: none.  The comparison is over the full summary.


def _run(config):
    simulation = Simulation(config)
    simulation.add_thread(RandomWriterThread("writer", count=400))
    simulation.add_thread(
        MixedWorkloadThread("mixed", count=300, read_fraction=0.5)
    )
    result = simulation.run()
    assert not result.incomplete
    return serialize_summary(result.summary())


def _base_config(ftl: str):
    config = small_config(seed=97)
    config.controller.ftl = FtlKind(ftl)
    config.sanitize = True
    return config


@pytest.mark.parametrize("ftl", FTLS)
def test_lax_governor_is_bit_identical_to_disabled(ftl: str):
    disabled = _run(_base_config(ftl))

    lax = _base_config(ftl)
    lax.overload.enabled = True  # all bounds at their None defaults
    assert _run(lax) == disabled


@pytest.mark.parametrize("ftl", FTLS)
def test_unreachable_bounds_are_bit_identical_too(ftl: str):
    disabled = _run(_base_config(ftl))

    armed = _base_config(ftl)
    armed.overload.enabled = True
    armed.overload.host_queue_bound = 10**6
    armed.overload.device_queue_bound = 10**6
    armed.overload.max_retries = 5
    armed.overload.degraded_enter_pending = 10**6
    armed.overload.degraded_admission_gap_ns = 10**6
    armed.overload.shed_priority_threshold = 10**6
    assert _run(armed) == disabled


def test_reliability_interplay_stays_bit_identical():
    """The golden crash scenarios carry reliability + power loss; a lax
    governor riding along must not disturb them either."""
    from tests.integration.golden import crash_scenario, run_scenario
    from repro import RecoveryStrategy

    threads = lambda: [RandomWriterThread("writer", count=600)]  # noqa: E731
    base = run_scenario(
        crash_scenario("page", RecoveryStrategy.OOB_SCAN), threads()
    )
    armed_config = crash_scenario("page", RecoveryStrategy.OOB_SCAN)
    armed_config.overload.enabled = True
    armed_config.overload.max_retries = 3
    assert run_scenario(armed_config, threads()) == base
