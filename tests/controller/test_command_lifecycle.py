"""The flash-command completion contract.

The array hands every finished command to its ``on_command_complete``
hook exactly once: straight from the last phase, or after the ECC decode
delay.  A bare array's default hook delivers ``cmd.on_complete``; under
a controller the hook is the controller's completion funnel, which
counts every physical attempt in the flash-command statistics and
delivers the originator's callback once, after any recovery.
"""

from __future__ import annotations

import pytest

from repro import FaultPlan, IoStatus
from repro.hardware.commands import CommandKind
from repro.hardware.flash import FlashStateError, Lun

from tests.controller.conftest import make_harness
from tests.hardware.test_array import make_array, program_page, submit


class _DecodingReliability:
    """Just enough of the reliability manager for an array to delay a
    read's delivery by a fixed ECC decode time."""

    read_decode_ns = 50

    def on_page_programmed(self, address, content) -> None:
        pass

    def program_fails(self, cmd) -> bool:
        return False

    def read_outcome(self, cmd, lun, now) -> None:
        pass


class TestBareArray:
    def test_every_kind_completes_once(self):
        sim, array = make_array()
        calls = []
        address = program_page(sim, array, token=(4, 1))
        read = submit(sim, array, CommandKind.READ, address=address, done=calls.append)
        program = submit(
            sim, array, CommandKind.PROGRAM, lun_key=(1, 0), content=(5, 1),
            done=calls.append,
        )
        sim.run()
        assert calls.count(read) == 1
        assert calls.count(program) == 1
        assert len(calls) == 2

    def test_decoded_read_completes_once_after_the_decode(self):
        sim, array = make_array()
        address = program_page(sim, array, token=(4, 1))
        array.reliability = _DecodingReliability()
        delivered = []
        read = submit(
            sim, array, CommandKind.READ, address=address,
            done=lambda cmd: delivered.append((cmd, sim.now)),
        )
        sim.run()
        assert delivered == [(read, read.complete_time + _DecodingReliability.read_decode_ns)]
        assert array.state.inflight_reads[0] == 0

    @pytest.mark.parametrize("decode", [False, True])
    def test_read_without_a_hold_underflows(self, decode):
        sim, array = make_array()
        address = program_page(sim, array)
        if decode:
            array.reliability = _DecodingReliability()
        submit(sim, array, CommandKind.READ, address=address)
        array.state.inflight_reads[0] = 0  # drop the hold ``submit`` took
        with pytest.raises(FlashStateError, match="inflight_reads underflow"):
            sim.run()


class TestReadHolds:
    def test_hold_and_release_count(self):
        lun = Lun(0, 0, 2, 4)
        lun.hold_read(1)
        lun.hold_read(1)
        assert lun.state.inflight_reads.tolist() == [0, 2]
        assert lun.release_read(1) == 1
        assert lun.release_read(1) == 0
        assert lun.state.inflight_reads.tolist() == [0, 0]

    def test_release_below_zero_reports_the_underflow(self):
        assert Lun(0, 0, 1, 4).release_read(0) == -1


class TestControllerFunnel:
    def test_every_read_attempt_is_counted_once(self):
        plan = FaultPlan().corrupt_read(lpn=5)

        def reliability_on(config):
            config.reliability.enabled = True
            config.reliability.max_read_retries = 2
            config.reliability.fault_plan = plan

        h = make_harness(reliability_on)
        h.write_sync(5)
        delivered = []
        original = h.controller.ftl._read_done

        def counting(cmd):
            delivered.append(cmd)
            original(cmd)

        h.controller.ftl._read_done = counting
        bad = h.read_sync(5)
        assert bad.status is IoStatus.UNCORRECTABLE
        assert h.controller.reliability.read_retries == 2
        # The original read and its two retries are three physical
        # attempts; the originator hears of the read once.
        assert h.controller.stats.flash_commands[("APPLICATION", "READ")] == 3
        assert h.controller.stats.flash_commands[("APPLICATION", "PROGRAM")] == 1
        assert len(delivered) == 1
        assert h.completed.count(bad) == 1
        h.controller.check_invariants()

    def test_callback_is_not_wrapped_at_enqueue(self):
        h = make_harness()
        h.write_sync(3)
        seen = []
        original = h.controller.enqueue_command

        def watch(cmd):
            callback = cmd.on_complete
            original(cmd)
            seen.append(cmd.on_complete is callback)

        h.controller.enqueue_command = watch
        h.read_sync(3)
        assert seen == [True]
