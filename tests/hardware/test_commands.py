"""Tests for the flash command vocabulary."""

from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand


class TestFlashCommand:
    def test_ids_increase(self):
        a = FlashCommand(CommandKind.READ, CommandSource.APPLICATION, PhysicalAddress(0, 0, 0, 0))
        b = FlashCommand(CommandKind.READ, CommandSource.GC, PhysicalAddress(0, 0, 0, 0))
        assert b.id > a.id

    def test_lun_key(self):
        cmd = FlashCommand(
            CommandKind.PROGRAM, CommandSource.APPLICATION, PhysicalAddress(2, 1, -1, -1)
        )
        assert cmd.lun_key == (2, 1)

    def test_age_before_enqueue_is_zero(self):
        cmd = FlashCommand(CommandKind.READ, CommandSource.GC, PhysicalAddress(0, 0, 0, 0))
        assert cmd.age(1000) == 0

    def test_age_after_enqueue(self):
        cmd = FlashCommand(CommandKind.READ, CommandSource.GC, PhysicalAddress(0, 0, 0, 0))
        cmd.enqueue_time = 100
        assert cmd.age(350) == 250

    def test_overdue(self):
        cmd = FlashCommand(
            CommandKind.READ,
            CommandSource.APPLICATION,
            PhysicalAddress(0, 0, 0, 0),
            deadline=500,
        )
        assert not cmd.overdue(500)
        assert cmd.overdue(501)
        cmd.deadline = None
        assert not cmd.overdue(10**12)

    def test_default_stream_and_target(self):
        cmd = FlashCommand(CommandKind.READ, CommandSource.APPLICATION, PhysicalAddress(0, 0, 0, 0))
        assert cmd.stream == "default"
        assert cmd.target_address is None

    def test_repr_mentions_kind_and_lpn(self):
        cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.GC,
            PhysicalAddress(0, 0, -1, -1),
            lpn=42,
        )
        text = repr(cmd)
        assert "PROGRAM" in text and "GC" in text and "lpn=42" in text
