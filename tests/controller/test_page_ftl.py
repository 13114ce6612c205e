"""Tests for the in-RAM page-mapping FTL."""

import pytest

from repro.hardware.memory import OutOfMemoryError

from tests.conftest import pbn
from tests.controller.conftest import make_harness


class TestReadWrite:
    def test_read_your_write(self, harness):
        harness.write_sync(5)
        io = harness.read_sync(5)
        assert io.data == (5, 1)

    def test_versions_increment_per_overwrite(self, harness):
        for _ in range(3):
            harness.write_sync(9)
        assert harness.read_sync(9).data == (9, 3)

    def test_overwrite_invalidates_previous_page(self, harness):
        first = harness.write_sync(3)
        ftl = harness.controller.ftl
        old_address = ftl.mapped_address(3)
        harness.write_sync(3)
        new_address = ftl.mapped_address(3)
        assert new_address != old_address
        lun = harness.controller.array.luns[(old_address.channel, old_address.lun)]
        assert lun.state.dead_count[pbn(lun, old_address.block)] >= 1

    def test_unmapped_read_returns_none_quickly(self, harness):
        io = harness.read_sync(100)
        assert io.data is None
        assert io.latency <= harness.config.timings.t_cmd_ns

    def test_mapped_page_count_tracks_distinct_lpns(self, harness):
        for lpn in (1, 2, 3, 2):
            harness.write_sync(lpn)
        assert harness.controller.ftl.mapped_page_count() == 3

    def test_writes_spread_across_luns(self, harness):
        for lpn in range(8):
            harness.write_sync(lpn)
        used = {
            harness.controller.ftl.mapped_address(lpn).channel
            for lpn in range(8)
        }
        assert len(used) > 1  # round-robin used several channels


class TestTrim:
    def test_trim_unmaps_and_invalidates(self, harness):
        harness.write_sync(4)
        address = harness.controller.ftl.mapped_address(4)
        harness.trim(4)
        harness.run()
        assert harness.controller.ftl.mapped_address(4) is None
        lun = harness.controller.array.luns[(address.channel, address.lun)]
        assert lun.state.dead_count[pbn(lun, address.block)] >= 1

    def test_read_after_trim_is_unmapped(self, harness):
        harness.write_sync(4)
        harness.trim(4)
        harness.run()
        assert harness.read_sync(4).data is None

    def test_trim_of_unmapped_page_is_noop(self, harness):
        io = harness.trim(77)
        harness.run()
        assert io.complete_time is not None
        harness.controller.check_invariants()


class TestConcurrentWrites:
    def test_last_issued_version_wins(self, harness):
        """Two in-flight writes to one LPN: whatever completion order,
        the higher version must win the mapping."""
        a = harness.write(6)
        b = harness.write(6)
        harness.run()
        assert a.complete_time is not None and b.complete_time is not None
        read = harness.read_sync(6)
        assert read.data == (6, 2)
        harness.controller.check_invariants()

    def test_many_concurrent_writes_single_mapping(self, harness):
        for _ in range(10):
            harness.write(2)
        harness.run()
        assert harness.controller.ftl.mapped_page_count() == 1
        assert harness.read_sync(2).data == (2, 10)
        harness.controller.check_invariants()


class TestRelocation:
    def test_relocation_updates_mapping(self, harness):
        harness.write_sync(1)
        ftl = harness.controller.ftl
        old = ftl.mapped_address(1)
        new_lun = (old.channel, old.lun)
        # Simulate a GC relocation result landing at a different address.
        harness.controller.array.luns[new_lun].take_free_block(5)
        harness.controller.array.luns[new_lun].program_next(5, (1, 1), 0)
        from repro.hardware.addresses import PhysicalAddress

        new = PhysicalAddress(old.channel, old.lun, 5, 0)
        assert ftl.on_relocation((1, 1), old, new) is True
        assert ftl.mapped_address(1) == new

    def test_stale_relocation_becomes_orphan(self, harness):
        harness.write_sync(1)
        ftl = harness.controller.ftl
        current = ftl.mapped_address(1)
        lun = harness.controller.array.luns[(current.channel, current.lun)]
        from repro.hardware.addresses import PhysicalAddress

        lun.take_free_block(7)
        lun.program_next(7, (1, 1), 0)
        orphan_from = PhysicalAddress(current.channel, current.lun, 9, 0)
        new = PhysicalAddress(current.channel, current.lun, 7, 0)
        assert ftl.on_relocation((1, 1), orphan_from, new) is False
        assert ftl.mapped_address(1) == current
        assert lun.state.dead_count[pbn(lun, 7)] == 1


class TestRamAccounting:
    def test_page_map_charged_to_ram(self, harness):
        used = harness.controller.memory.ram.allocations["page map"]
        assert used == harness.config.logical_pages * 8

    def test_insufficient_ram_rejected(self):
        with pytest.raises(OutOfMemoryError):
            make_harness(lambda c: setattr(c.controller, "ram_bytes", 16))
