"""Timing and state tests for the flash array executor.

These tests drive the array directly (no controller) with hand-made
commands and a trivial sequential page binder, and check the *exact*
virtual-time arithmetic of each command kind, of interleaving, and of
pipelining.

Timing constants used throughout (see ``_timings``):

* command cycle 10ns, bus 1ns/B, page 64B (transfer 64ns)
* t_read 100ns, t_prog 200ns, t_erase 1000ns

Expected uncontended durations:

* READ     10 + 100 + (10 + 64)        = 184
* PROGRAM  (10 + 64) + 200             = 274
* ERASE    10 + 1000                   = 1010
* COPYBACK 10 + 100 + 10 + 200         = 320
"""

import pytest

from repro.core.config import ChipTimings, SsdGeometry
from repro.core.engine import Simulator
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.flash import FlashStateError

READ_NS = 184
PROGRAM_NS = 274
ERASE_NS = 1010
COPYBACK_NS = 320


def _timings():
    return ChipTimings(
        t_cmd_ns=10,
        t_read_ns=100,
        t_prog_ns=200,
        t_erase_ns=1000,
        bus_ns_per_byte=1,
        supports_copyback=True,
        supports_pipelining=True,
    )


def _geometry():
    return SsdGeometry(
        channels=2,
        luns_per_channel=2,
        blocks_per_lun=4,
        pages_per_block=4,
        page_size_bytes=64,
    )


class _SequentialBinder:
    """Fills block 0, then 1, ... within each command's LUN."""

    def __init__(self, array):
        self.array = array

    def __call__(self, cmd):
        lun = self.array.luns[cmd.lun_key]
        start, _ = lun.state.block_range(lun.lun_index)
        for block_id in range(lun.blocks_per_lun):
            if not lun.is_full(block_id):
                if block_id in lun.free_block_ids:
                    lun.take_free_block(block_id)
                return PhysicalAddress(
                    cmd.lun_key[0],
                    cmd.lun_key[1],
                    block_id,
                    int(lun.state.write_pointer[start + block_id]),
                )
        raise AssertionError("binder out of space")


def make_array(interleaving=True, pipelining=False):
    sim = Simulator()
    array = SsdArray(
        sim, _geometry(), _timings(), interleaving=interleaving, pipelining=pipelining
    )
    array.bind_program = _SequentialBinder(array)
    return sim, array


def submit(sim, array, kind, lun_key=(0, 0), address=None, content=None, done=None):
    if address is None:
        address = PhysicalAddress(lun_key[0], lun_key[1], -1, -1)
    cmd = FlashCommand(kind, CommandSource.APPLICATION, address, content=content, on_complete=done)
    cmd.enqueue_time = sim.now
    if kind in (CommandKind.READ, CommandKind.COPYBACK):
        array.luns[cmd.lun_key].hold_read(address.block)
    array.start(cmd)
    return cmd


def program_page(sim, array, lun_key=(0, 0), token=(1, 1)):
    cmd = submit(sim, array, CommandKind.PROGRAM, lun_key=lun_key, content=token)
    sim.run()
    return cmd.address


class TestCommandDurations:
    def test_program_duration_and_state(self):
        sim, array = make_array()
        cmd = submit(sim, array, CommandKind.PROGRAM, content=(7, 1))
        sim.run()
        assert cmd.complete_time == PROGRAM_NS
        assert cmd.address == PhysicalAddress(0, 0, 0, 0)
        assert array.lun_grid[0][0].read(0, 0) == (7, 1)

    def test_read_duration_and_content(self):
        sim, array = make_array()
        address = program_page(sim, array, token=(9, 3))
        start = sim.now
        cmd = submit(sim, array, CommandKind.READ, address=address)
        sim.run()
        assert cmd.complete_time - start == READ_NS
        assert cmd.content == (9, 3)
        assert array.state.inflight_reads[0] == 0

    def test_erase_duration(self):
        sim, array = make_array()
        address = program_page(sim, array)
        array.lun_grid[0][0].invalidate(0, address.page)
        start = sim.now
        cmd = submit(
            sim, array, CommandKind.ERASE,
            address=PhysicalAddress(0, 0, address.block, 0),
        )
        sim.run()
        assert cmd.complete_time - start == ERASE_NS
        assert address.block in array.lun_grid[0][0].free_block_ids
        assert array.state.erase_count[0] == 1

    def test_copyback_duration_and_move(self):
        sim, array = make_array()
        address = program_page(sim, array, token=(4, 2))
        start = sim.now
        cmd = submit(sim, array, CommandKind.COPYBACK, address=address)
        sim.run()
        assert cmd.complete_time - start == COPYBACK_NS
        assert cmd.target_address is not None
        target = cmd.target_address
        assert array.lun_grid[0][0].read(target.block, target.page) == (4, 2)

    def test_completion_counter(self):
        sim, array = make_array()
        done = []
        submit(sim, array, CommandKind.PROGRAM, content=(1, 1), done=done.append)
        sim.run()
        assert len(done) == 1


class TestParallelism:
    def test_different_channels_fully_parallel(self):
        sim, array = make_array()
        a = submit(sim, array, CommandKind.PROGRAM, lun_key=(0, 0), content=(1, 1))
        b = submit(sim, array, CommandKind.PROGRAM, lun_key=(1, 0), content=(2, 1))
        sim.run()
        assert a.complete_time == PROGRAM_NS
        assert b.complete_time == PROGRAM_NS

    def test_same_channel_interleaved_programs_overlap(self):
        """Second program waits only for the first bus phase (74ns), not
        for the whole first program."""
        sim, array = make_array(interleaving=True)
        a = submit(sim, array, CommandKind.PROGRAM, lun_key=(0, 0), content=(1, 1))
        b = submit(sim, array, CommandKind.PROGRAM, lun_key=(0, 1), content=(2, 1))
        sim.run()
        assert a.complete_time == PROGRAM_NS
        assert b.complete_time == 74 + PROGRAM_NS

    def test_same_channel_without_interleaving_serialises(self):
        sim, array = make_array(interleaving=False)
        a = submit(sim, array, CommandKind.PROGRAM, lun_key=(0, 0), content=(1, 1))
        # The channel is reserved for the whole first command, so a
        # command on the channel's other LUN cannot start until it ends.
        channel = array.channels[0]
        assert not array.lun_grid[0][1].is_busy
        assert channel.busy_until == PROGRAM_NS
        sim.run()
        assert channel.is_free(sim.now)
        assert a.complete_time == PROGRAM_NS

    def test_read_data_out_waits_for_busy_channel(self):
        """Two interleaved reads on one channel: the second's data-out
        parks behind the first's."""
        sim, array = make_array(interleaving=True)
        addr_a = program_page(sim, array, lun_key=(0, 0), token=(1, 1))
        addr_b = program_page(sim, array, lun_key=(0, 1), token=(2, 1))
        start = sim.now
        a = submit(sim, array, CommandKind.READ, address=addr_a)
        b = submit(sim, array, CommandKind.READ, address=addr_b)
        sim.run()
        # a: cmd 0-10, array 10-110, out 110-184.
        # b: cmd 10-20, array 20-120, out parks until 184, runs 184-258.
        assert a.complete_time - start == 184
        assert b.complete_time - start == 258

    def test_lun_busy_while_command_runs(self):
        sim, array = make_array()
        cmd = submit(sim, array, CommandKind.PROGRAM, content=(1, 1))
        assert array.lun_grid[0][0].is_busy
        assert array.lun_grid[0][0].current_command is cmd
        sim.run()
        assert not array.lun_grid[0][0].is_busy


class TestPhasePlans:
    """``_after_bus`` runs the array phase that follows a bus phase
    inline, which holds because every plan starts with a bus phase and
    alternates bus and array phases."""

    def test_every_plan_alternates_from_a_bus_phase(self):
        _, array = make_array()
        assert set(array._plans) == {kind.value for kind in CommandKind}
        for phases in array._plans.values():
            assert [is_array for is_array, _ in phases] == [
                index % 2 == 1 for index in range(len(phases))
            ]

    @staticmethod
    def _event_times(sim, array, cmd):
        """Step ``cmd`` to completion; per event, the time and the LUN's
        and channel's state after it."""
        lun = array.lun_grid[cmd.address.channel][cmd.address.lun]
        channel = array.channels[cmd.address.channel]
        steps = []
        while sim.run(max_events=1):
            steps.append((sim.now, lun.busy_until, channel.busy_until, lun.is_busy))
        return steps

    @staticmethod
    def _relative(steps, start):
        return [(now - start, lun - start, bus - start, busy) for now, lun, bus, busy in steps]

    def test_pipelined_read_phase_ends(self):
        sim, array = make_array(pipelining=True)
        address = program_page(sim, array, token=(1, 1))
        start = sim.now
        read = submit(sim, array, CommandKind.READ, address=address)
        assert array.channels[0].busy_until == start + 10
        steps = self._relative(self._event_times(sim, array, read), start)
        # cmd 0-10, array 10-110, data-out 110-184 with the LUN released.
        assert steps == [
            (10, 110, 10, True),
            (110, 110, 184, False),
            (184, 110, 184, False),
        ]
        assert read.complete_time - start == READ_NS

    def test_interleaved_copyback_phase_ends(self):
        sim, array = make_array(interleaving=True)
        address = program_page(sim, array, token=(4, 2))
        start = sim.now
        copyback = submit(sim, array, CommandKind.COPYBACK, address=address)
        assert array.channels[0].busy_until == start + 10
        steps = self._relative(self._event_times(sim, array, copyback), start)
        # cmd 0-10, read 10-110, cmd 110-120, program 120-320.
        assert steps == [
            (10, 110, 10, True),
            (110, 110, 120, True),
            (120, 320, 120, True),
            (320, 320, 120, False),
        ]
        assert copyback.complete_time - start == COPYBACK_NS


class TestPipelining:
    def test_pipelined_read_frees_lun_during_data_out(self):
        """With the cache register, a program can start on the LUN while
        the read's data drains over the bus."""
        sim, array = make_array(pipelining=True)
        address = program_page(sim, array, token=(1, 1))
        start = sim.now
        read = submit(sim, array, CommandKind.READ, address=address)
        # Run until the read's array phase is over (start+110) and check
        # the LUN frees before the data-out completes.
        sim.run(until=start + 111)
        assert not array.lun_grid[0][0].is_busy
        sim.run()
        assert read.complete_time - start == READ_NS

    def test_without_pipelining_lun_held_through_data_out(self):
        sim, array = make_array(pipelining=False)
        address = program_page(sim, array, token=(1, 1))
        start = sim.now
        submit(sim, array, CommandKind.READ, address=address)
        sim.run(until=start + 111)
        assert array.lun_grid[0][0].is_busy

    def test_pipelining_requires_chip_support(self):
        sim = Simulator()
        timings = _timings()
        timings.supports_pipelining = False
        array = SsdArray(sim, _geometry(), timings, pipelining=True)
        assert not array.pipelining


class TestStartEffects:
    def test_block_with_live_page_not_erasable(self):
        sim, array = make_array()
        address = program_page(sim, array)
        lun = array.lun_grid[0][0]
        assert not lun.erasable(address.block)
        lun.invalidate(address.block, address.page)
        assert lun.erasable(address.block)

    def test_start_on_busy_lun_raises(self):
        sim, array = make_array()
        submit(sim, array, CommandKind.PROGRAM, content=(1, 1))
        with pytest.raises(FlashStateError):
            submit(sim, array, CommandKind.PROGRAM, content=(2, 1))

    def test_program_without_content_raises(self):
        sim, array = make_array()
        with pytest.raises(FlashStateError):
            submit(sim, array, CommandKind.PROGRAM, content=None)

    def test_program_without_binder_raises(self):
        sim, array = make_array()
        array.bind_program = None
        with pytest.raises(FlashStateError):
            submit(sim, array, CommandKind.PROGRAM, content=(1, 1))

    def test_on_complete_callback_receives_command(self):
        sim, array = make_array()
        seen = []
        submit(sim, array, CommandKind.PROGRAM, content=(1, 1), done=seen.append)
        sim.run()
        assert len(seen) == 1 and seen[0].kind is CommandKind.PROGRAM

    def test_resource_free_notifications_fire(self):
        sim, array = make_array()
        calls = []
        array.on_resource_free = lambda: calls.append(sim.now)
        program_page(sim, array)
        assert calls  # at least bus-free and completion notifications


class TestIntrospection:
    def test_total_live_pages(self):
        sim, array = make_array()
        program_page(sim, array, lun_key=(0, 0))
        program_page(sim, array, lun_key=(1, 1))
        assert array.total_live_pages() == 2

    def test_erase_counts_vector_length(self):
        sim, array = make_array()
        counts = array.erase_counts()
        assert len(counts) == _geometry().total_blocks
        assert all(count == 0 for count in counts)

    def test_utilisation_reports(self):
        sim, array = make_array()
        program_page(sim, array)
        utilisation = array.channel_utilisation()
        assert len(utilisation) == 2
        assert utilisation[0] > 0.0
        lun_util = array.lun_utilisation()
        assert lun_util[(0, 0)] > 0.0 and lun_util[(1, 1)] == 0.0
