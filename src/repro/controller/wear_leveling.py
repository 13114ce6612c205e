"""Wear leveling (paper Section 2.2).

"The default wear leveling module keeps track of (1) the ages of all
blocks, (2) a timestamp for each block marking the time in which it was
last erased, (3) the average length of time it takes a block to be
erased, and (4) the current time.  Using this information, the WL module
can identify particularly young blocks that have not been erased for a
very long time, and can target them for static wear leveling."

Static WL is implemented here: every ``check_interval_erases`` block
erases the module scans for blocks whose erase count lies well below the
average and which have not been erased for several average erase
intervals.  The module only decides: it hands each such block to
:meth:`repro.controller.gc.GarbageCollector.migrate`, whose evacuation
job -- the one every GC kind runs on -- moves the live (hence cold) data
to an *old* block, reports the pages to the temperature module as cold,
and erases the young block, making it available to hot writes.  One
such job runs at a time, which bounds its interference with host IO.

Dynamic WL -- handing young free blocks to hot streams and old free
blocks to cold streams -- lives in the allocator's free-block selection
(:meth:`repro.controller.allocation.WriteAllocator._pick_free_block`).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.addresses import iter_luns
from repro.hardware.commands import CommandSource

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


class WearLeveler:
    """Static wear leveling: migrate cold data off under-erased blocks."""

    def __init__(self, controller: "SsdController"):
        self.controller = controller
        self.config = controller.config.controller.wear_leveling
        self._erases_since_check = 0
        #: Rotates the scan's starting LUN so the one-migration limit
        #: does not starve later LUNs of migrations.
        self._scan_rotation = 0
        self.total_erases = 0
        self.migrations_started = 0
        self.migrated_pages = 0

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_erase(self) -> None:
        """Controller hook, called on every completed block erase."""
        self.total_erases += 1
        if not self.config.enabled:
            return
        if self.controller.ftl.manages_physical_space:
            # The hybrid FTL's block map cannot express arbitrary page
            # relocations; static WL stands down (as in real hybrid FTLs,
            # which level wear through their own merge choices).
            return
        self._erases_since_check += 1
        if self._erases_since_check >= self.config.check_interval_erases:
            self._erases_since_check = 0
            self._scan()

    # ------------------------------------------------------------------
    # Static-WL scan
    # ------------------------------------------------------------------
    def _scan(self) -> None:
        array = self.controller.array
        geometry = self.controller.config.geometry
        now = self.controller.sim.now
        num_blocks = geometry.total_blocks
        if self.total_erases == 0 or now == 0:
            return
        average_erases = self.total_erases / num_blocks
        # Average time between erases of one block, estimated globally.
        average_interval = now / max(1.0, average_erases)
        erase_floor = average_erases - self.config.erase_count_threshold
        idle_floor = self.config.idle_factor * average_interval
        lun_keys = list(iter_luns(geometry))
        start = self._scan_rotation % len(lun_keys)
        self._scan_rotation += 1
        gc = self.controller.gc
        if any(
            job.source is CommandSource.WEAR_LEVELING for job in gc.evacuating.values()
        ):
            return
        for offset in range(len(lun_keys)):
            lun_key = lun_keys[(start + offset) % len(lun_keys)]
            lun = array.luns[lun_key]
            state = lun.state
            lo, hi = state.block_range(lun.lun_index)
            # Under-erased occupied blocks whose data has sat cold for at
            # least one idle interval.  A recently-written block holds
            # fresh (likely hot) data; migrating it would pump hot pages
            # onto old blocks and concentrate wear instead of leveling it.
            mask = (
                (state.block_free[lo:hi] == 0)
                & (state.write_pointer[lo:hi] > 0)
                & (state.live_count[lo:hi] > 0)
                & (state.erase_count[lo:hi] < erase_floor)
                & (now - state.last_erase_ns[lo:hi] > idle_floor)
                & (now - state.last_write_ns[lo:hi] > idle_floor)
            )
            for block_id in self.controller.allocator.open_block_ids(lun_key):
                mask[block_id] = False
            for block_id in np.nonzero(mask)[0].tolist():
                if (lun_key, block_id) in gc.evacuating:
                    continue
                self.migrations_started += 1
                gc.migrate(lun_key, block_id)
                return

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def wear_statistics(self) -> dict[str, float]:
        """Spread of erase counts across all blocks."""
        counts = self.controller.array.erase_counts()
        mean = sum(counts) / len(counts)
        variance = sum((c - mean) ** 2 for c in counts) / len(counts)
        return {
            "min": float(min(counts)),
            "max": float(max(counts)),
            "mean": mean,
            "stddev": math.sqrt(variance),
            "spread": float(max(counts) - min(counts)),
        }
