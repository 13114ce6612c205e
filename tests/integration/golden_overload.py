"""Golden-summary fixtures for overload-on runs, all summary keys.

:mod:`tests.integration.golden` leaves the overload keys out of its byte
comparison (``KEYS_ADDED_AFTER_CAPTURE``: they postdate its fixture).
``tests/fixtures/golden_overload_summaries.json`` pins them: the full
:func:`repro.core.statistics.serialize_summary` of one crash-free run per
FTL with the overload layer on, tuned so that device rejections, host
retries (some exhausted), command timeouts, throttling and degraded mode
all fire.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src python -m tests.integration.golden_overload
"""

from __future__ import annotations

import json
import os

from repro import FtlKind, Simulation, small_config
from repro.core.config import SimulationConfig
from repro.core.statistics import serialize_summary
from repro.workloads import MixedWorkloadThread, RandomWriterThread

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)),
    "fixtures",
    "golden_overload_summaries.json",
)

FTLS = ("page", "dftl", "hybrid")


def overload_scenario(ftl: str) -> SimulationConfig:
    config = small_config(seed=11)
    config.controller.ftl = FtlKind(ftl)
    config.controller.write_buffer_pages = 16
    config.sanitize = True
    config.host.max_outstanding = 64
    overload = config.overload
    overload.enabled = True
    overload.device_queue_bound = 6
    overload.host_queue_bound = 24
    overload.degraded_enter_pending = 5
    overload.degraded_admission_gap_ns = 20_000
    overload.command_timeout_ns = 300_000
    overload.max_retries = 2
    return config


def run_scenario(ftl: str) -> str:
    simulation = Simulation(overload_scenario(ftl))
    simulation.add_thread(RandomWriterThread("writer", count=1500, depth=32))
    simulation.add_thread(MixedWorkloadThread("mixed", count=600, read_fraction=0.5))
    result = simulation.run()
    assert not result.incomplete, "scenario left outstanding IOs"
    return serialize_summary(result.summary())


def capture() -> dict[str, str]:
    return {ftl: run_scenario(ftl) for ftl in FTLS}


def main() -> None:
    fixtures = capture()
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixtures)} overload golden summaries to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
