"""Pin the exact text of small traced runs.

Hot-path trace sites skip building their detail strings when tracing is
off; with tracing on, :meth:`TraceRecorder.render` and
:meth:`TraceRecorder.to_csv` must keep producing the same bytes.
``tests/fixtures/golden_traces.json`` holds the SHA-256 of both outputs
(and the record count) for one traced run per FTL, with the reliability
subsystem on so its trace sites are covered too.

IO ids (``#N``) come from a process-wide counter, so they are rebased to
the first id of the run before hashing.

Regenerate (only when an *intentional* trace change lands) with::

    PYTHONPATH=src python -m tests.core.test_trace_golden
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile

import pytest

from repro import FaultPlan, FtlKind, Simulation, small_config
from repro.core.config import SimulationConfig
from repro.workloads import (
    MixedWorkloadThread,
    RandomWriterThread,
    precondition_sequential,
)

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "golden_traces.json"
)

FTLS = ("page", "dftl", "hybrid")

_IO_ID = re.compile(r"#(\d+)")


def trace_config(ftl: str) -> SimulationConfig:
    config = small_config(seed=5)
    config.trace_enabled = True
    config.controller.ftl = FtlKind(ftl)
    reliability = config.reliability
    reliability.enabled = True
    reliability.base_rber = 2.5e-4
    reliability.ecc_correctable_bits = 6
    reliability.fault_plan = FaultPlan().corrupt_read(lpn=5)
    return config


def _rebase_ids(text: str) -> str:
    ids = [int(match) for match in _IO_ID.findall(text)]
    if not ids:
        return text
    base = min(ids)
    return _IO_ID.sub(lambda m: f"#{int(m.group(1)) - base}", text)


def traced_outputs(config: SimulationConfig) -> dict[str, object]:
    """Record count and digests of ``render()`` and ``to_csv()``."""
    simulation = Simulation(config)
    fill = precondition_sequential(config.logical_pages)
    simulation.add_thread(fill)
    simulation.add_thread(
        RandomWriterThread("writer", count=300, depth=8), depends_on=[fill.name]
    )
    simulation.add_thread(
        MixedWorkloadThread("mixed", count=100, read_fraction=0.7),
        depends_on=[fill.name],
    )
    result = simulation.run()
    assert not result.incomplete, "traced run left outstanding IOs"
    tracer = simulation.tracer
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        tracer.to_csv(path)
        with open(path, newline="") as handle:
            csv_text = handle.read()
    return {
        "records": len(tracer),
        "render_sha256": hashlib.sha256(
            _rebase_ids(tracer.render()).encode()
        ).hexdigest(),
        "csv_sha256": hashlib.sha256(_rebase_ids(csv_text).encode()).hexdigest(),
    }


@pytest.fixture(scope="module")
def trace_fixture() -> dict[str, dict[str, object]]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


@pytest.mark.parametrize("ftl", FTLS)
def test_traced_run_output_is_pinned(
    ftl: str, trace_fixture: dict[str, dict[str, object]]
) -> None:
    assert traced_outputs(trace_config(ftl)) == trace_fixture[ftl]


def main() -> None:
    fixtures = {ftl: traced_outputs(trace_config(ftl)) for ftl in FTLS}
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixtures)} traced-run digests to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
