"""Golden fixtures for the logical-IO path of every FTL.

``tests/fixtures/golden_ftl_paths.json`` pins one traced run per mapping
scheme (page map, DFTL, hybrid).  Each run is an
:class:`~tests.integration.oracle.OracleThread` mix of writes, trims and
reads over the lower half of the address space, which is never
preconditioned, so reads also hit never-written and trimmed pages; a
sequential fill of the upper half runs first so the mix also drives
garbage collection (the DFTL run evicts from a small CMT, the hybrid run
merges).  Each run pins the :func:`repro.core.statistics.serialize_summary`
digest, the digest of ``TraceRecorder.render()`` (IO ids rebased as in
:mod:`tests.core.test_trace_golden`) and the FTL's counters, and must
drive its own counter above zero.

Regenerate (only when an *intentional* behaviour change lands) with::

    PYTHONPATH=src python -m tests.integration.golden_ftl
"""

from __future__ import annotations

import hashlib
import json
import os

from repro import FtlKind, Simulation, small_config
from repro.core.config import SimulationConfig
from repro.core.events import IoRequest, IoType
from repro.core.statistics import serialize_summary
from repro.workloads import SequentialWriterThread

from tests.core.test_trace_golden import _rebase_ids
from tests.integration.oracle import OracleThread

FIXTURE_PATH = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fixtures", "golden_ftl_paths.json"
)

#: FTL -> (``ftl`` attributes pinned, the counter the run exists to drive).
RUNS: dict[str, tuple[FtlKind, tuple[str, ...], str]] = {
    "page": (FtlKind.PAGE, (), "relocated_pages"),
    "dftl": (
        FtlKind.DFTL,
        ("cmt_hits", "cmt_misses", "evictions", "batched_flush_entries", "tp_fetch_reads"),
        "evictions",
    ),
    "hybrid": (
        FtlKind.HYBRID,
        ("full_merges", "switch_merges", "merged_pages", "filler_pages"),
        "full_merges",
    ),
}


class _CountingOracle(OracleThread):
    """The oracle, also counting completed trims and reads that found
    no mapping (never-written or trimmed pages)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.trims = 0
        self.unmapped_reads = 0

    def on_io_completed(self, ctx, io: IoRequest) -> None:
        if io.io_type is IoType.TRIM:
            self.trims += 1
        elif io.io_type is IoType.READ and io.data is None:
            self.unmapped_reads += 1
        super().on_io_completed(ctx, io)


def _config(ftl: FtlKind) -> SimulationConfig:
    config = small_config(seed=11)
    config.trace_enabled = True
    config.controller.ftl = ftl
    config.controller.dftl.cmt_entries = 64
    return config


def run_ftl(name: str) -> dict[str, object]:
    """Summary digest, render digest and counters of one FTL's run."""
    ftl, attributes, _ = RUNS[name]
    config = _config(ftl)
    simulation = Simulation(config)
    half = config.logical_pages // 2
    fill = SequentialWriterThread(
        "fill", count=config.logical_pages - half, region=(half, config.logical_pages)
    )
    simulation.add_thread(fill)
    oracle = _CountingOracle(
        "oracle", operations=4000, region=(0, half), write_weight=0.55, trim_weight=0.1
    )
    simulation.add_thread(oracle, depends_on=[fill.name])
    result = simulation.run()
    assert not result.incomplete, f"{name} left outstanding IOs"
    controller = simulation.controller
    controller.check_invariants()
    counters = {attribute: getattr(controller.ftl, attribute) for attribute in attributes}
    counters["relocated_pages"] = controller.gc.relocated_pages
    counters["mapped_pages"] = controller.ftl.mapped_page_count()
    counters["verified_reads"] = oracle.verified_reads
    counters["unmapped_reads"] = oracle.unmapped_reads
    counters["trims"] = oracle.trims
    return {
        "summary_sha256": hashlib.sha256(
            serialize_summary(result.summary()).encode()
        ).hexdigest(),
        "render_sha256": hashlib.sha256(
            _rebase_ids(simulation.tracer.render()).encode()
        ).hexdigest(),
        "counters": counters,
    }


def main() -> None:
    fixtures = {name: run_ftl(name) for name in RUNS}
    os.makedirs(os.path.dirname(FIXTURE_PATH), exist_ok=True)
    with open(FIXTURE_PATH, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(fixtures)} FTL-path goldens to {FIXTURE_PATH}")


if __name__ == "__main__":
    main()
