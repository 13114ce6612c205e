"""Tests for the controller memory manager."""

import pytest

from repro.hardware.memory import MemoryManager, OutOfMemoryError


class TestAllocation:
    def test_allocate_and_account(self):
        memory = MemoryManager(ram_bytes=1000, battery_ram_bytes=100)
        memory.allocate_ram("map", 600)
        assert memory.ram_available == 400
        memory.allocate_battery_ram("buffer", 80)

    def test_over_allocation_rejected(self):
        memory = MemoryManager(1000, 100)
        memory.allocate_ram("map", 600)
        with pytest.raises(OutOfMemoryError):
            memory.allocate_ram("cache", 500)
        with pytest.raises(OutOfMemoryError):
            memory.allocate_battery_ram("buffer", 101)

    def test_same_label_resizes_not_leaks(self):
        memory = MemoryManager(1000, 0)
        memory.allocate_ram("cache", 800)
        memory.allocate_ram("cache", 900)  # resize within budget
        assert memory.ram_available == 100

    def test_resize_down_then_reuse(self):
        memory = MemoryManager(1000, 0)
        memory.allocate_ram("cache", 900)
        memory.allocate_ram("cache", 100)
        memory.allocate_ram("other", 800)
        assert memory.ram_available == 100

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            MemoryManager(10, 0).allocate_ram("x", -1)

    def test_report_lists_pools_and_labels(self):
        memory = MemoryManager(1024, 1024)
        memory.allocate_ram("page map", 512)
        report = memory.report()
        assert "RAM" in report and "page map" in report and "battery" in report
