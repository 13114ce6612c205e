"""Tests for the controller orchestration layer itself."""

import pytest

from repro.core.config import TemperatureDetector
from repro.core.events import IoRequest, IoType
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

from tests.conftest import pbn
from tests.controller.conftest import make_harness


class TestIoRouting:
    def test_unknown_io_type_rejected(self, harness):
        io = IoRequest(IoType.READ, 0)
        io.io_type = "bogus"
        with pytest.raises(ValueError):
            harness.controller.submit_io(io)

    def test_completion_timestamps_stamped(self, harness):
        io = harness.write_sync(0)
        assert io.complete_time is not None
        assert io.complete_time > io.dispatch_time


class TestHintGating:
    def test_hints_stripped_without_open_interface(self):
        harness = make_harness()
        assert harness.controller.hints_of(
            IoRequest(IoType.WRITE, 0, hints={"priority": 1})
        ) == {}

    def test_hints_passed_with_open_interface(self):
        harness = make_harness(lambda c: setattr(c.host, "open_interface", True))
        hints = {"priority": 1}
        assert harness.controller.hints_of(
            IoRequest(IoType.WRITE, 0, hints=hints)
        ) == hints

    def test_temperature_hint_feeds_detector(self):
        def mutate(config):
            config.host.open_interface = True
            config.controller.temperature.detector = TemperatureDetector.HINT

        harness = make_harness(mutate)
        harness.write_sync(7, hints={"temperature": "hot"})
        assert harness.controller.temperature.is_hot(7)

    def test_temperature_hint_ignored_when_closed(self):
        harness = make_harness(
            lambda c: setattr(
                c.controller.temperature, "detector", TemperatureDetector.HINT
            )
        )
        harness.write_sync(7, hints={"temperature": "hot"})
        assert not harness.controller.temperature.is_hot(7)


class TestCommandFunnel:
    def test_read_increments_inflight_counter(self, harness):
        harness.write_sync(0)
        address = harness.controller.ftl.mapped_address(0)
        lun = harness.controller.array.luns[(address.channel, address.lun)]
        harness.read(0)
        assert lun.state.inflight_reads[pbn(lun, address.block)] == 1
        harness.run()
        assert lun.state.inflight_reads[pbn(lun, address.block)] == 0

    def test_stats_recorded_per_source_and_kind(self, harness):
        harness.write_sync(0)
        harness.read_sync(0)
        flash = harness.controller.stats.flash_commands
        assert flash[("APPLICATION", "PROGRAM")] == 1
        assert flash[("APPLICATION", "READ")] == 1

    def test_completion_preserves_module_callback_order(self, harness):
        """The module handler (mapping update) must run before stats/GC
        bookkeeping -- observed via the mapping being updated when the
        flash-command stats already include the program."""
        events = []
        cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.APPLICATION,
            PhysicalAddress(0, 0, -1, -1),
            lpn=0,
            content=(0, 1),
            stream="app",
            on_complete=lambda c: events.append("module"),
        )
        harness.controller.enqueue_command(cmd)
        original_record = harness.controller.stats.record_flash_command

        def record(*args):
            events.append("stats")
            original_record(*args)

        harness.controller.stats.record_flash_command = record
        harness.run()
        assert events == ["module", "stats"]


class TestBusyAndInvariants:
    def test_check_invariants_passes_after_heavy_workload(self, harness):
        for round_ in range(3):
            for lpn in range(0, harness.config.logical_pages, 2):
                harness.write(lpn)
            harness.run()
        harness.controller.check_invariants()

    def test_check_invariants_detects_leak(self, harness):
        harness.write_sync(0)
        address = harness.controller.ftl.mapped_address(0)
        lun = harness.controller.array.luns[(address.channel, address.lun)]
        lun.hold_read(address.block)  # corrupt on purpose
        with pytest.raises(AssertionError, match="in-flight"):
            harness.controller.check_invariants()

    def test_check_invariants_detects_live_mismatch(self, harness):
        harness.write_sync(0)
        address = harness.controller.ftl.mapped_address(0)
        lun = harness.controller.array.luns[(address.channel, address.lun)]
        lun.invalidate(address.block, address.page)  # corrupt on purpose
        with pytest.raises(AssertionError, match="live-page"):
            harness.controller.check_invariants()
