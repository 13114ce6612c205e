"""Golden-summary fixtures for every SSD scheduler policy.

The scenarios in :mod:`tests.integration.golden` all run the default
FIFO policy.  ``tests/fixtures/golden_policy_summaries.json`` pins the
SHA-256 of the :func:`repro.core.statistics.serialize_summary` bytes for
every combination of

* policy: FIFO, PRIORITY (with open-interface priority hints), DEADLINE
  and FAIR;
* interleaving: on and off;
* pipelining: on and off (on SLC chips, which have the cache register);
* FTL: page and hybrid;

all on ``small_config``.  Each run fills the device sequentially, then
races a random writer (GC and merge traffic) against a hinted random
reader, so dispatch order decides the result.  The digests were captured
before the scheduler's incremental dispatch state landed; a byte-level
drift in dispatch order under any policy shows up as a mismatch.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src python -m tests.integration.golden_policies
"""

from __future__ import annotations

import hashlib
import json
import os

from repro import ChipTimings, FtlKind, Simulation, SsdSchedulerPolicy, small_config
from repro.core.config import SimulationConfig
from repro.core.statistics import serialize_summary
from repro.host.interface import priority_hint
from repro.workloads import (
    RandomReaderThread,
    RandomWriterThread,
    precondition_sequential,
)

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)),
    "fixtures",
    "golden_policy_summaries.json",
)

POLICIES = (
    SsdSchedulerPolicy.FIFO,
    SsdSchedulerPolicy.PRIORITY,
    SsdSchedulerPolicy.DEADLINE,
    SsdSchedulerPolicy.FAIR,
)
FTLS = (FtlKind.PAGE, FtlKind.HYBRID)


def scenario_name(
    policy: SsdSchedulerPolicy, interleaving: bool, pipelining: bool, ftl: FtlKind
) -> str:
    return (
        f"{policy.value}-il{int(interleaving)}-pl{int(pipelining)}-{ftl.value}"
    )


def policy_config(
    policy: SsdSchedulerPolicy, interleaving: bool, pipelining: bool, ftl: FtlKind
) -> SimulationConfig:
    config = small_config(seed=11)
    config.timings = ChipTimings.slc()
    config.controller.ftl = ftl
    config.controller.enable_interleaving = interleaving
    config.controller.enable_pipelining = pipelining
    config.controller.scheduler.policy = policy
    if policy is SsdSchedulerPolicy.PRIORITY:
        config.host.open_interface = True
        config.controller.scheduler.use_priority_hints = True
    return config


def run_policy_scenario(config: SimulationConfig) -> str:
    """SHA-256 of the serialized summary of one scenario run."""
    simulation = Simulation(config)
    fill = precondition_sequential(config.logical_pages)
    simulation.add_thread(fill)
    simulation.add_thread(
        RandomWriterThread("writer", count=500, depth=16), depends_on=[fill.name]
    )
    simulation.add_thread(
        RandomReaderThread(
            "reader",
            count=200,
            depth=4,
            hint_fn=lambda io_type, lpn: priority_hint(-1),
        ),
        depends_on=[fill.name],
    )
    result = simulation.run()
    assert not result.incomplete, "scenario left outstanding IOs"
    digest = hashlib.sha256(serialize_summary(result.summary()).encode())
    return digest.hexdigest()


def scenarios() -> dict[str, SimulationConfig]:
    return {
        scenario_name(policy, interleaving, pipelining, ftl): policy_config(
            policy, interleaving, pipelining, ftl
        )
        for policy in POLICIES
        for interleaving in (True, False)
        for pipelining in (True, False)
        for ftl in FTLS
    }


def capture() -> dict[str, str]:
    return {name: run_policy_scenario(config)
            for name, config in sorted(scenarios().items())}


def main() -> None:
    fixtures = capture()
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixtures)} policy golden digests to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
