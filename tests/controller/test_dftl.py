"""Tests for DFTL: cached mapping table, translation pages, evictions."""

import random

import pytest

from repro.controller.ftl.dftl import _CmtEntry
from repro.core.config import FtlKind
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

from tests.controller.conftest import ControllerHarness, make_harness


def dftl_harness(cmt_entries=64, batch=True, mutate=None) -> ControllerHarness:
    def apply(config):
        config.controller.ftl = FtlKind.DFTL
        config.controller.dftl.cmt_entries = cmt_entries
        config.controller.dftl.batch_eviction = batch
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


class TestBasicMapping:
    def test_read_your_write(self):
        harness = dftl_harness()
        harness.write_sync(5)
        assert harness.read_sync(5).data == (5, 1)

    def test_overwrite_returns_latest(self):
        harness = dftl_harness()
        for _ in range(4):
            harness.write_sync(11)
        assert harness.read_sync(11).data == (11, 4)

    def test_unmapped_read(self):
        harness = dftl_harness()
        assert harness.read_sync(30).data is None

    def test_trim(self):
        harness = dftl_harness()
        harness.write_sync(8)
        harness.trim(8)
        harness.run()
        assert harness.read_sync(8).data is None
        harness.controller.check_invariants()


class TestCmtBehaviour:
    def test_hits_and_misses_counted(self):
        harness = dftl_harness(cmt_entries=64)
        harness.write_sync(1)  # miss (first touch)
        harness.read_sync(1)   # hit
        ftl = harness.controller.ftl
        assert ftl.cmt_misses >= 1
        assert ftl.cmt_hits >= 1
        assert 0.0 < ftl.hit_ratio() < 1.0

    def test_capacity_never_exceeded(self):
        harness = dftl_harness(cmt_entries=8)
        for lpn in range(64):
            harness.write_sync(lpn)
        assert len(harness.controller.ftl.cmt) <= 8

    def test_eviction_of_dirty_entry_writes_translation_page(self):
        harness = dftl_harness(cmt_entries=4)
        for lpn in range(32):
            harness.write_sync(lpn)
        mapping_programs = harness.controller.stats.flash_commands.get(
            ("MAPPING", "PROGRAM"), 0
        )
        assert mapping_programs > 0
        assert harness.controller.ftl.evictions > 0

    def test_miss_on_persisted_entry_reads_translation_page(self):
        harness = dftl_harness(cmt_entries=4)
        # Fill enough lpns that lpn 0's entry is evicted and persisted.
        for lpn in range(32):
            harness.write_sync(lpn)
        before = harness.controller.stats.flash_commands.get(("MAPPING", "READ"), 0)
        assert harness.read_sync(0).data == (0, 1)
        after = harness.controller.stats.flash_commands.get(("MAPPING", "READ"), 0)
        assert after > before

    def test_small_cmt_slower_than_page_resident_behaviour(self):
        """More mapping traffic with a tiny CMT than with a huge one."""
        def traffic(cmt_entries):
            harness = dftl_harness(cmt_entries=cmt_entries)
            for lpn in range(0, 128):
                harness.write_sync(lpn)
            flash = harness.controller.stats.flash_commands
            return sum(c for (src, _), c in flash.items() if src == "MAPPING")

        assert traffic(4) > traffic(1024)

    def test_batch_eviction_flushes_siblings(self):
        harness = dftl_harness(cmt_entries=4, batch=True)
        # LPNs 0..3 share a translation page (entries_per_tp >> 4).
        for lpn in range(4):
            harness.write_sync(lpn)
        harness.write_sync(500)  # evicts lpn 0, batching 1..3 with it
        assert harness.controller.ftl.batched_flush_entries > 0

    def test_concurrent_misses_coalesce(self):
        harness = dftl_harness(cmt_entries=4)
        for lpn in range(32):
            harness.write_sync(lpn)
        ftl = harness.controller.ftl
        before = ftl.tp_fetch_reads
        # lpns 0 and 1 share a translation page and are both evicted now.
        harness.read(0)
        harness.read(1)
        harness.run()
        assert ftl.tp_fetch_reads - before == 1  # one fetch, two misses


class TestRamAccounting:
    def test_gtd_and_cmt_charged(self):
        harness = dftl_harness(cmt_entries=16)
        allocations = harness.controller.memory.ram.allocations
        assert "dftl gtd" in allocations
        assert allocations["dftl cmt"] == 16 * 8

    def test_cmt_derived_from_ram_budget_when_unset(self):
        harness = dftl_harness(cmt_entries=None)
        ftl = harness.controller.ftl
        assert ftl.cmt_capacity == harness.config.logical_pages  # capped

    def test_derived_cmt_respects_small_ram(self):
        harness = dftl_harness(
            cmt_entries=None,
            mutate=lambda c: setattr(c.controller, "ram_bytes", 4096),
        )
        ftl = harness.controller.ftl
        assert 1 <= ftl.cmt_capacity < harness.config.logical_pages


class TestGcInteraction:
    def test_sustained_overwrites_preserve_data_under_gc(self):
        harness = dftl_harness(cmt_entries=32)
        rng_lpns = [(i * 37) % harness.config.logical_pages for i in range(3000)]
        writes_per_lpn = {}
        for lpn in rng_lpns:
            harness.write(lpn)
            writes_per_lpn[lpn] = writes_per_lpn.get(lpn, 0) + 1
        harness.run()
        harness.controller.check_invariants()
        assert harness.controller.gc.collected_blocks > 0
        for lpn in list(writes_per_lpn)[:20]:
            assert harness.read_sync(lpn).data == (lpn, writes_per_lpn[lpn])

    def test_translation_pages_survive_gc(self):
        harness = dftl_harness(cmt_entries=4)
        for round_ in range(6):
            for lpn in range(0, harness.config.logical_pages, 3):
                harness.write(lpn)
            harness.run()
        harness.controller.check_invariants()
        # Mapping still resolves everywhere after heavy GC + TP traffic.
        assert harness.read_sync(0).data == (0, 6)


class TestTranslationPagePaths:
    """Translation page ``tp`` is versioned under the pseudo-LPN
    ``-(tp + 1)`` and takes the shared write-completion and relocation
    path, with the GTD (``tp_locations``) as its mapping store."""

    @staticmethod
    def _written_tp0():
        """A harness whose dirty evictions have written translation page 0."""
        harness = dftl_harness(cmt_entries=4)
        for lpn in range(32):
            harness.write_sync(lpn)
        ftl = harness.controller.ftl
        assert ftl.tp_locations.get(0) is not None
        return harness, ftl

    @staticmethod
    def _copy_to_spare_block(harness, source):
        """Program the page at ``source`` into a fresh block of its LUN,
        as a GC/WL relocation would; returns (content, new address, LUN)."""
        lun = harness.controller.array.luns[(source.channel, source.lun)]
        content = lun.read(source.block, source.page)
        block_id = min(lun.free_block_ids)
        lun.take_free_block(block_id)
        page = lun.program_next(block_id, content, 0)
        return content, PhysicalAddress(source.channel, source.lun, block_id, page), lun

    def test_relocation_moves_the_gtd_entry(self):
        harness, ftl = self._written_tp0()
        old = ftl.tp_locations.get(0)
        content, new, _ = self._copy_to_spare_block(harness, old)
        assert content[0] == -1
        assert ftl.on_relocation(content, old, new) is True
        assert ftl.tp_locations.get(0) == new
        assert ftl.mapped_address(-1) == new
        old_lun = harness.controller.array.luns[(old.channel, old.lun)]
        assert old.page not in old_lun.live_page_indexes(old.block)

    def test_relocated_copy_of_a_rewritten_tp_is_orphaned(self):
        harness, ftl = self._written_tp0()
        old = ftl.tp_locations.get(0)
        content, new, lun = self._copy_to_spare_block(harness, old)
        # The translation page is rewritten while the relocation is in flight.
        ftl._write_tp(0)
        harness.run()
        current = ftl.tp_locations.get(0)
        assert current not in (None, old)
        assert ftl.on_relocation(content, old, new) is False
        assert ftl.tp_locations.get(0) == current
        assert new.page not in lun.live_page_indexes(new.block)

    def test_tp_program_that_lost_the_version_race_is_invalidated(self):
        harness = dftl_harness()
        ftl = harness.controller.ftl
        lun = harness.controller.array.luns[(0, 0)]
        block_id = min(lun.free_block_ids)
        lun.take_free_block(block_id)

        def tp0_program():
            version = ftl.next_version(-1)
            page = lun.program_next(block_id, (-1, version), 0)
            return FlashCommand(
                CommandKind.PROGRAM,
                CommandSource.MAPPING,
                PhysicalAddress(0, 0, block_id, page),
                lpn=-1,
                content=(-1, version),
            )

        older, newer = tp0_program(), tp0_program()
        ftl._write_done(newer)
        ftl._write_done(older)  # lands last, with the lower version
        assert ftl.tp_locations.get(0) == newer.address
        assert lun.live_page_indexes(block_id) == [newer.address.page]


class TestBatchedFlush:
    """``_flush`` walks the smaller of the translation page's LPN range
    and the CMT; both must persist exactly what a scan of the whole CMT
    does."""

    @staticmethod
    def _scan_whole_cmt(ftl, lpn, entry) -> None:
        """The reference: persist ``lpn``, then every dirty CMT sibling."""
        ftl.persisted.set(lpn, entry.ppn)
        low = lpn // ftl.entries_per_tp * ftl.entries_per_tp
        high = low + ftl.entries_per_tp
        for sibling, sibling_entry in ftl.cmt.items():
            if low <= sibling < high and sibling_entry.dirty:
                ftl.persisted.set(sibling, sibling_entry.ppn)
                sibling_entry.dirty = False
                ftl.batched_flush_entries += 1

    @staticmethod
    def _fill(ftl, rng, size) -> None:
        logical_pages = len(ftl.persisted.table)
        for lpn in rng.sample(range(logical_pages), size):
            ppn = None
            if rng.random() < 0.8:
                ppn = PhysicalAddress(
                    rng.randrange(2), rng.randrange(2), rng.randrange(8), rng.randrange(8)
                )
            ftl.cmt[lpn] = _CmtEntry(ppn, dirty=rng.random() < 0.5)
        for lpn in rng.sample(range(logical_pages), 50):
            ftl.persisted.set(lpn, PhysicalAddress(1, 1, 1, 1))

    @pytest.mark.parametrize("cmt_size", [20, 200, 900])
    def test_matches_a_scan_of_the_whole_cmt(self, cmt_size):
        for seed in range(5):
            ftls = []
            for flush in ("smaller side", "whole CMT"):
                harness = dftl_harness(cmt_entries=1000)
                ftl = harness.controller.ftl
                ftl._write_tp = lambda tp: None  # no translation-page IO
                rng = random.Random(seed)
                self._fill(ftl, rng, cmt_size)
                victim = rng.randrange(len(ftl.persisted.table))
                entry = _CmtEntry(PhysicalAddress(0, 0, 0, 0), dirty=True)
                if flush == "smaller side":
                    ftl._flush(victim, entry)
                else:
                    self._scan_whole_cmt(ftl, victim, entry)
                ftls.append(ftl)
            fast, reference = ftls
            assert (fast.persisted.table == reference.persisted.table).all()
            assert fast.batched_flush_entries == reference.batched_flush_entries
            assert [e.dirty for e in fast.cmt.values()] == [
                e.dirty for e in reference.cmt.values()
            ]
