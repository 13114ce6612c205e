"""Tests for the FAST-style hybrid FTL."""

import pytest

from repro import FaultPlan, RecoveryStrategy, Simulation, small_config
from repro.controller.ftl.hybrid import HybridFtl
from repro.core.config import FtlKind
from repro.workloads import RandomWriterThread

from tests.controller.conftest import ControllerHarness, make_harness


def hybrid_harness(log_blocks=8, switch=True, mutate=None) -> ControllerHarness:
    def apply(config):
        config.controller.ftl = FtlKind.HYBRID
        config.controller.hybrid.log_blocks = log_blocks
        config.controller.hybrid.switch_merge = switch
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


class TestBasicMapping:
    def test_read_your_write(self):
        harness = hybrid_harness()
        harness.write_sync(5)
        assert harness.read_sync(5).data == (5, 1)

    def test_overwrite_returns_latest(self):
        harness = hybrid_harness()
        for _ in range(4):
            harness.write_sync(9)
        assert harness.read_sync(9).data == (9, 4)

    def test_unmapped_read(self):
        harness = hybrid_harness()
        assert harness.read_sync(321).data is None

    def test_trim_of_log_resident_page(self):
        harness = hybrid_harness()
        harness.write_sync(7)
        harness.trim(7)
        harness.run()
        assert harness.read_sync(7).data is None
        harness.controller.check_invariants()

    def test_writes_land_in_log_blocks_first(self):
        harness = hybrid_harness()
        harness.write_sync(3)
        ftl = harness.controller.ftl
        assert 3 in ftl.log_map
        assert ftl.mapped_page_count() == 1


class TestMerges:
    def _fill_log(self, harness, distinct_lbns=True):
        """Issue enough writes to exhaust the log pool and force merges."""
        ftl = harness.controller.ftl
        ppb = ftl.ppb
        pages = harness.config.logical_pages
        count = (ftl.max_log_blocks + 2) * ppb
        for step in range(count):
            if distinct_lbns:
                lpn = (step * (ppb + 1)) % pages  # scattered across lbns
            else:
                lpn = step % pages
            harness.write(lpn)
        harness.run()

    def test_full_merge_reclaims_log_space(self):
        harness = hybrid_harness(log_blocks=4)
        self._fill_log(harness)
        ftl = harness.controller.ftl
        assert ftl.full_merges > 0
        assert not ftl._pending_writes
        harness.controller.check_invariants()

    def test_data_survives_merges(self):
        harness = hybrid_harness(log_blocks=4)
        versions = {}
        ftl = harness.controller.ftl
        pages = harness.config.logical_pages
        for step in range(6 * ftl.max_log_blocks * ftl.ppb):
            lpn = (step * 37) % pages
            harness.write(lpn)
            versions[lpn] = versions.get(lpn, 0) + 1
        harness.run()
        harness.controller.check_invariants()
        for lpn in list(versions)[::53]:
            assert harness.read_sync(lpn).data == (lpn, versions[lpn])

    def test_sequential_fill_uses_switch_merges(self):
        harness = hybrid_harness()
        ftl = harness.controller.ftl
        for lpn in range(harness.config.logical_pages):
            harness.write(lpn)
        harness.run()
        assert ftl.switch_merges > 0
        # A perfectly sequential fill needs (almost) no copying.
        assert ftl.merged_pages < ftl.switch_merges * ftl.ppb / 4

    def test_switch_merge_can_be_disabled(self):
        harness = hybrid_harness(switch=False)
        for lpn in range(harness.config.logical_pages):
            harness.write(lpn)
        harness.run()
        ftl = harness.controller.ftl
        assert ftl.switch_merges == 0
        assert ftl.full_merges > 0

    def test_merges_tagged_as_gc_traffic(self):
        harness = hybrid_harness(log_blocks=4, switch=False)
        self._fill_log(harness)
        flash = harness.controller.stats.flash_commands
        assert flash.get(("GC", "READ"), 0) > 0
        assert flash.get(("GC", "PROGRAM"), 0) > 0
        assert flash.get(("GC", "ERASE"), 0) > 0

    def test_generic_gc_and_wl_stand_down(self):
        harness = hybrid_harness(log_blocks=4)
        self._fill_log(harness)
        assert harness.controller.gc.collected_blocks == 0
        assert harness.controller.wear_leveler.migrations_started == 0

    def test_random_writes_much_worse_than_sequential(self):
        """The canonical hybrid-FTL result (the DFTL paper's motivation):
        random updates force full merges; sequential writes switch."""
        sequential = hybrid_harness()
        for lpn in range(sequential.config.logical_pages):
            sequential.write(lpn)
        sequential.run()

        random_ = hybrid_harness()
        pages = random_.config.logical_pages
        for step in range(pages):
            random_.write((step * 1103515245 + 12345) % pages)
        random_.run()

        assert (
            random_.controller.stats.write_amplification()
            > 2 * sequential.controller.stats.write_amplification()
        )


class TestConcurrencyRaces:
    def test_overwrite_during_merge_stays_authoritative(self):
        harness = hybrid_harness(log_blocks=2)
        ftl = harness.controller.ftl
        pages = harness.config.logical_pages
        # Saturate the log so merges interleave with fresh writes.
        versions = {}
        for step in range(6 * ftl.max_log_blocks * ftl.ppb):
            lpn = (step * 7) % min(pages, 4 * ftl.ppb)  # hot small region
            harness.write(lpn)
            versions[lpn] = versions.get(lpn, 0) + 1
        harness.run()
        harness.controller.check_invariants()
        for lpn in list(versions)[::11]:
            assert harness.read_sync(lpn).data == (lpn, versions[lpn])


    def test_trim_and_overwrite_after_merge_snapshot(self):
        """A page trimmed after its lbn's merge snapshot leaves the merged
        copy stale at commit; a page overwritten then loses it to the
        later log write.  Either way the merged copy ends dead."""
        config = small_config()
        config.controller.ftl = FtlKind.HYBRID
        config.controller.hybrid.log_blocks = 2
        config.controller.hybrid.switch_merge = False
        # Every IO reaches the controller at once: the trim must land
        # while the merge is still copying.
        harness = ControllerHarness(config, max_outstanding=10_000)
        ftl = harness.controller.ftl
        ppb = ftl.ppb
        jobs = []
        copy = ftl._merge_copy

        def spy(job):
            if job.offset == 0:
                jobs.append(job)  # the snapshot is taken
            copy(job)

        ftl._merge_copy = spy
        # Two log blocks of in-order lbns, then one lbn more: its writes
        # wait for a full merge of the oldest log block.
        for lpn in range(3 * ppb):
            harness.write(lpn)
        while not jobs:
            assert harness.sim.run(max_events=1) == 1
        job = jobs[0]
        trimmed, overwritten = job.base_lpn + ppb - 1, job.base_lpn + ppb - 2
        assert job.snapshot[ppb - 1] is not None and job.snapshot[ppb - 2] is not None
        assert ftl.full_merges == 1 and ftl.merged_pages == 0
        harness.trim(trimmed)
        harness.write(overwritten)
        harness.run()
        target = job.target
        assert ftl._data_block_of(job.lbn) == (target.channel, target.lun, target.block)
        new_lun = harness.controller.array.lun_grid[target.channel][target.lun]
        assert new_lun.is_full(target.block)
        live = new_lun.live_page_indexes(target.block)
        assert ppb - 1 not in live and ppb - 2 not in live
        assert 0 in live
        harness.controller.check_invariants()
        assert harness.read_sync(trimmed).data is None
        assert harness.read_sync(overwritten).data == (overwritten, 2)


class TestConfiguration:
    def test_infeasible_log_pool_rejected(self):
        with pytest.raises(ValueError, match="hybrid FTL needs"):
            hybrid_harness(log_blocks=10_000)

    def test_ram_accounting(self):
        harness = hybrid_harness()
        allocations = harness.controller.memory.ram.allocations
        assert "hybrid block map" in allocations
        assert "hybrid log map" in allocations
        assert "hybrid validity bitmaps" in allocations


class TestDataBlockLifecycle:
    def test_trim_of_data_resident_page(self):
        """A page that already migrated into a data block can be trimmed."""
        harness = hybrid_harness()
        ftl = harness.controller.ftl
        # Fill one whole lbn sequentially so a switch merge creates a
        # data block holding lpn 0.
        for lpn in range(ftl.ppb * (ftl.max_log_blocks + 1)):
            harness.write(lpn)
        harness.run()
        assert 0 not in ftl.log_map  # merged into a data block
        assert ftl.mapped_address(0) is not None
        harness.trim(0)
        harness.run()
        assert harness.read_sync(0).data is None
        harness.controller.check_invariants()

    def test_overwrite_of_data_resident_page_goes_back_to_log(self):
        harness = hybrid_harness()
        ftl = harness.controller.ftl
        for lpn in range(ftl.ppb * (ftl.max_log_blocks + 1)):
            harness.write(lpn)
        harness.run()
        assert 5 not in ftl.log_map
        harness.write_sync(5)
        assert 5 in ftl.log_map
        assert harness.read_sync(5).data == (5, 2)

    def test_merge_produces_readable_data_blocks(self):
        harness = hybrid_harness(log_blocks=4, switch=False)
        ftl = harness.controller.ftl
        span = 2 * ftl.ppb
        versions = {}
        for step in range(8 * ftl.ppb):
            lpn = step % span
            harness.write(lpn)
            versions[lpn] = versions.get(lpn, 0) + 1
        harness.run()
        assert ftl.full_merges > 0
        for lpn in range(0, span, 5):
            assert harness.read_sync(lpn).data == (lpn, versions[lpn])

    def test_filler_pages_are_dead_on_arrival(self):
        harness = hybrid_harness(log_blocks=2, switch=False)
        ftl = harness.controller.ftl
        # Write a single page per lbn, enough to exhaust the log pool,
        # so merges must fill the remaining offsets of every lbn.
        num_lbns = min(ftl.num_lbns, ftl.max_log_blocks * ftl.ppb + 4)
        for lbn in range(num_lbns):
            harness.write(lbn * ftl.ppb)
        harness.run()
        assert ftl.filler_pages > 0
        harness.controller.check_invariants()


class TestMountConsolidation:
    def test_remount_consolidates_several_lbns(self, monkeypatch):
        """A power loss that leaves the log pool unable to restart: the
        remount full-merges several lbns synchronously, through the same
        commit step as a runtime merge."""
        mounts = []
        rebuild = HybridFtl.rebuild_from_recovery

        def recording_rebuild(ftl, *args):
            rebuild(ftl, *args)
            mounts.append(
                (
                    ftl,
                    dict(ftl.mount_consolidation),
                    ftl.full_merges,
                    ftl.merged_pages,
                    list(ftl._log),
                )
            )

        monkeypatch.setattr(HybridFtl, "rebuild_from_recovery", recording_rebuild)
        config = small_config(seed=42)
        config.controller.ftl = FtlKind.HYBRID
        config.controller.write_buffer_pages = 16
        config.crash.strategy = RecoveryStrategy.OOB_SCAN
        config.sanitize = True
        config.reliability.fault_plan = FaultPlan().power_loss(
            at_ns=3_000_000, off_ns=500_000
        )
        simulation = Simulation(config)
        simulation.add_thread(RandomWriterThread("writer", count=600))
        result = simulation.run()
        assert result.incomplete is False

        [(ftl, work, merges, merged_pages, log_blocks)] = mounts
        assert merges >= 2
        assert work["programs"] == ftl.ppb * merges
        assert work["reads"] == merged_pages
        assert work["erases"] >= 1
        # Blocks the mount erased left the log pool.
        assert len(log_blocks) <= ftl.max_log_blocks
        for lun_key, block_id in log_blocks:
            lun = ftl.controller.array.luns[lun_key]
            assert block_id not in lun.free_block_ids
        simulation.controller.check_invariants()
