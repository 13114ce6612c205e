"""Tests for the block/LUN state machines (NAND constraints)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import FaultPlan, FtlKind, Simulation, small_config
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.flash import Block, FlashStateError, Lun
from repro.hardware.state import FlashState
from repro.reliability.crash import PowerCycleCoordinator
from repro.workloads import RandomWriterThread


class TestBlockProgramming:
    def test_programs_are_sequential(self):
        block = Block(4)
        for expected in range(4):
            index = block.program_next((expected, 1), now_ns=10)
            assert index == expected
        assert block.is_full

    def test_program_on_full_block_rejected(self):
        block = Block(2)
        block.program_next((0, 1), 0)
        block.program_next((1, 1), 0)
        with pytest.raises(FlashStateError):
            block.program_next((2, 1), 0)

    def test_program_updates_counts_and_timestamps(self):
        block = Block(4)
        block.program_next((7, 1), now_ns=123)
        assert block.live_count == 1
        assert block.free_pages == 3
        assert block.last_write_ns == 123
        assert block.live_page_indexes() == [0]
        assert block.read(0) == (7, 1)


class TestInvalidation:
    def test_invalidate_marks_dead(self):
        block = Block(4)
        block.program_next((1, 1), 0)
        block.invalidate(0)
        assert block.live_page_indexes() == []
        assert block.read(0) == (1, 1)  # programmed, no longer mapped
        assert block.live_count == 0
        assert block.dead_count == 1

    def test_invalidate_free_page_rejected(self):
        with pytest.raises(FlashStateError):
            Block(4).invalidate(0)

    def test_double_invalidate_rejected(self):
        block = Block(4)
        block.program_next((1, 1), 0)
        block.invalidate(0)
        with pytest.raises(FlashStateError):
            block.invalidate(0)


class TestRead:
    def test_read_live_and_dead_pages(self):
        block = Block(4)
        block.program_next((5, 1), 0)
        assert block.read(0) == (5, 1)
        block.invalidate(0)
        assert block.read(0) == (5, 1)  # stale-but-referenced data survives

    def test_read_free_page_rejected(self):
        with pytest.raises(FlashStateError):
            Block(4).read(0)


class TestErase:
    def _dead_block(self, pages=4):
        block = Block(pages)
        for i in range(pages):
            block.program_next((i, 1), 0)
            block.invalidate(i)
        return block

    def test_erase_resets_everything(self):
        block = self._dead_block()
        block.erase(now_ns=999)
        assert block.is_empty
        assert block.erase_count == 1
        assert block.last_erase_ns == 999
        for index in range(block.num_pages):
            with pytest.raises(FlashStateError):
                block.read(index)
        assert block.free_pages == block.num_pages

    def test_erase_with_live_pages_rejected(self):
        block = Block(4)
        block.program_next((1, 1), 0)
        with pytest.raises(FlashStateError):
            block.erase(0)

    def test_erase_with_inflight_reads_rejected(self):
        block = self._dead_block()
        block.inflight_reads = 1
        with pytest.raises(FlashStateError):
            block.erase(0)

    def test_erasable_predicate(self):
        block = Block(2)
        assert not block.erasable  # empty: nothing to erase
        block.program_next((0, 1), 0)
        assert not block.erasable  # live data
        block.invalidate(0)
        assert block.erasable
        block.inflight_reads = 1
        assert not block.erasable

    def test_block_reusable_after_erase(self):
        block = self._dead_block(2)
        block.erase(0)
        assert block.program_next((9, 2), 0) == 0

    def test_live_page_indexes(self):
        block = Block(4)
        block.program_next((0, 1), 0)
        block.program_next((1, 1), 0)
        block.program_next((2, 1), 0)
        block.invalidate(1)
        assert block.live_page_indexes() == [0, 2]


class TestLun:
    def test_initial_state_all_free(self):
        lun = Lun(0, 1, blocks_per_lun=8, pages_per_block=4)
        assert lun.key == (0, 1)
        assert set(lun.free_block_ids) == set(range(8))
        assert not lun.is_busy
        assert lun.total_free_pages() == 32

    def test_take_and_return_free_block(self):
        lun = Lun(0, 0, 4, 4)
        lun.take_free_block(2)
        assert 2 not in lun.free_block_ids
        with pytest.raises(FlashStateError):
            lun.take_free_block(2)
        lun.on_block_erased(2)
        assert 2 in lun.free_block_ids

    def test_aggregate_counts(self):
        lun = Lun(0, 0, 2, 4)
        block = lun.block(0)
        lun.take_free_block(0)
        block.program_next((0, 1), 0)
        block.program_next((1, 1), 0)
        block.invalidate(0)
        assert block.live_count == 1
        assert block.dead_count == 1
        assert lun.total_free_pages() == 6
        assert lun.erase_counts() == [0, 0]


class TestFullyDeadIndex:
    """``FlashState.fully_dead``: per LUN, the global ids of programmed
    blocks without a live page, kept as blocks die."""

    def _lun(self, lun_index=1):
        state = FlashState(2, 4, 4)
        return Lun(0, lun_index, 4, 4, state=state, lun_index=lun_index), state

    def test_invalidating_last_live_page_adds_block(self):
        lun, state = self._lun()
        block = lun.block(2)
        block.program_next((0, 1), 0)
        block.program_next((1, 1), 0)
        block.invalidate(0)
        assert state.fully_dead == [set(), set()]
        block.invalidate(1)
        assert state.fully_dead == [set(), {4 + 2}]

    def test_tearing_last_live_page_adds_block(self):
        lun, state = self._lun()
        block = lun.block(3)
        block.program_next((0, 1), 0)
        block.program_next((1, 1), 0)
        block.invalidate(0)
        block.mark_torn(1)
        assert state.fully_dead[1] == {4 + 3}

    def test_tearing_a_dead_page_changes_nothing(self):
        lun, state = self._lun()
        block = lun.block(0)
        block.program_next((0, 1), 0)
        block.program_next((1, 1), 0)
        block.invalidate(0)
        block.mark_torn(0)
        assert state.fully_dead[1] == set()

    def test_erase_removes_block(self):
        lun, state = self._lun()
        block = lun.block(1)
        block.program_next((0, 1), 0)
        block.invalidate(0)
        assert state.fully_dead[1] == {4 + 1}
        block.erase(0)
        assert state.fully_dead[1] == set()

    def test_reseed_rebuilds_from_arrays(self):
        state = FlashState(2, 4, 4)
        state.write_pointer[[1, 2, 5, 6]] = 2
        state.live_count[[2, 6]] = 1
        state.bad[5] = 1
        state.fully_dead[0].add(3)  # stale: erased behind the index
        state.reseed_fully_dead()
        assert state.fully_dead == [{1}, set()]

    def test_crash_remount_reseeds_the_sets(self):
        """The remount rewrites validity in bulk from the recovered
        mapping: a block none of whose pages the mapping references dies
        without an ``invalidate`` call, and the reseed must index it."""
        simulation = Simulation(small_config())
        array = simulation.controller.array
        lun = array.luns[(0, 0)]
        kept, orphaned = lun.block(0), lun.block(1)
        kept.program_next((0, 1), 0)
        kept.program_next((1, 1), 0)
        orphaned.program_next((2, 1), 0)
        mapping = {0: (PhysicalAddress(0, 0, 0, 0), 1)}
        PowerCycleCoordinator(simulation)._rebuild_validity(array, mapping)
        assert (kept.live_count, orphaned.live_count) == (1, 0)
        assert array.state.fully_dead[lun.lun_index] == {lun.lun_index * lun.blocks_per_lun + 1}

    def test_crash_remount_keeps_the_sets_exact(self, monkeypatch):
        """End to end: at every remount of a DFTL run the sets equal the
        arrays' fully-dead blocks before the mount erases them."""
        seen: list[list[int]] = []
        cleanup = PowerCycleCoordinator._mount_cleanup

        def checked(coordinator, array, config):
            state = array.state
            expected = np.nonzero(state.fully_dead_mask())[0].tolist()
            seen.append(expected)
            assert sorted(b for dead in state.fully_dead for b in sorted(dead)) == expected
            return cleanup(coordinator, array, config)

        monkeypatch.setattr(PowerCycleCoordinator, "_mount_cleanup", checked)
        config = small_config(seed=42)
        config.controller.ftl = FtlKind.DFTL
        config.reliability.fault_plan = FaultPlan().power_loss(
            at_ns=3_000_000, off_ns=500_000
        )
        simulation = Simulation(config)
        simulation.add_thread(RandomWriterThread("writer", count=600))
        result = simulation.run()
        assert result.crash_stats.power_losses == 1
        assert len(seen) == 1
        simulation.controller.check_invariants()


@given(st.lists(st.sampled_from(["program", "invalidate", "erase"]), max_size=60))
def test_property_block_counts_stay_consistent(ops):
    """Under any legal op sequence, live+dead+free == num_pages and the
    write pointer equals live+dead."""
    block = Block(8)
    live_indexes = []
    for op in ops:
        if op == "program" and not block.is_full:
            index = block.program_next((index_token(block), 1), 0)
            live_indexes.append(index)
        elif op == "invalidate" and live_indexes:
            block.invalidate(live_indexes.pop(0))
        elif op == "erase" and block.erasable and not live_indexes:
            block.erase(0)
        # Invariants hold after every step:
        assert block.live_count + block.dead_count == block.write_pointer
        assert block.free_pages == block.num_pages - block.write_pointer
        assert block.live_count == len(live_indexes)


def index_token(block):
    return block.write_pointer
