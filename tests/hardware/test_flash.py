"""Tests for the LUN's block state machine (NAND constraints)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import FaultPlan, FtlKind, Simulation, small_config
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.flash import FlashStateError, Lun
from repro.hardware.state import FlashState
from repro.reliability.crash import PowerCycleCoordinator
from repro.workloads import RandomWriterThread


def one_block(pages: int) -> Lun:
    """A standalone LUN of one block: block 0, global id 0, is the block
    under test, and its metadata is ``lun.state.<column>[0]``."""
    return Lun(0, 0, 1, pages)


class TestBlockProgramming:
    def test_programs_are_sequential(self):
        lun = one_block(4)
        for expected in range(4):
            index = lun.program_next(0, (expected, 1), now_ns=10)
            assert index == expected
        assert lun.is_full(0)

    def test_program_on_full_block_rejected(self):
        lun = one_block(2)
        lun.program_next(0, (0, 1), 0)
        lun.program_next(0, (1, 1), 0)
        with pytest.raises(FlashStateError):
            lun.program_next(0, (2, 1), 0)

    def test_program_updates_counts_and_timestamps(self):
        lun = one_block(4)
        lun.program_next(0, (7, 1), now_ns=123)
        state = lun.state
        assert state.live_count[0] == 1
        assert state.write_pointer[0] == 1
        assert lun.total_free_pages() == 3
        assert state.last_write_ns[0] == 123
        assert lun.live_page_indexes(0) == [0]
        assert lun.read(0, 0) == (7, 1)


class TestInvalidation:
    def test_invalidate_marks_dead(self):
        lun = one_block(4)
        lun.program_next(0, (1, 1), 0)
        lun.invalidate(0, 0)
        assert lun.live_page_indexes(0) == []
        assert lun.read(0, 0) == (1, 1)  # programmed, no longer mapped
        assert lun.state.live_count[0] == 0
        assert lun.state.dead_count[0] == 1

    def test_invalidate_free_page_rejected(self):
        with pytest.raises(FlashStateError):
            one_block(4).invalidate(0, 0)

    def test_double_invalidate_rejected(self):
        lun = one_block(4)
        lun.program_next(0, (1, 1), 0)
        lun.invalidate(0, 0)
        with pytest.raises(FlashStateError):
            lun.invalidate(0, 0)


class TestRead:
    def test_read_live_and_dead_pages(self):
        lun = one_block(4)
        lun.program_next(0, (5, 1), 0)
        assert lun.read(0, 0) == (5, 1)
        lun.invalidate(0, 0)
        assert lun.read(0, 0) == (5, 1)  # stale-but-referenced data survives

    def test_read_free_page_rejected(self):
        with pytest.raises(FlashStateError):
            one_block(4).read(0, 0)


class TestErase:
    def _dead_block(self, pages=4):
        lun = one_block(pages)
        for i in range(pages):
            lun.program_next(0, (i, 1), 0)
            lun.invalidate(0, i)
        return lun

    def test_erase_resets_everything(self):
        lun = self._dead_block()
        assert lun.erase(0, now_ns=999) == 1
        state = lun.state
        assert state.write_pointer[0] == 0
        assert state.erase_count[0] == 1
        assert state.last_erase_ns[0] == 999
        for index in range(4):
            with pytest.raises(FlashStateError):
                lun.read(0, index)
        assert lun.total_free_pages() == 4

    def test_erase_with_live_pages_rejected(self):
        lun = one_block(4)
        lun.program_next(0, (1, 1), 0)
        with pytest.raises(FlashStateError):
            lun.erase(0, 0)

    def test_erase_with_inflight_reads_rejected(self):
        lun = self._dead_block()
        lun.hold_read(0)
        with pytest.raises(FlashStateError):
            lun.erase(0, 0)

    def test_erasable_predicate(self):
        lun = one_block(2)
        assert not lun.erasable(0)  # empty: nothing to erase
        lun.program_next(0, (0, 1), 0)
        assert not lun.erasable(0)  # live data
        lun.invalidate(0, 0)
        assert lun.erasable(0)
        lun.hold_read(0)
        assert not lun.erasable(0)
        assert lun.release_read(0) == 0
        assert lun.erasable(0)

    def test_block_reusable_after_erase(self):
        lun = self._dead_block(2)
        lun.erase(0, 0)
        assert lun.program_next(0, (9, 2), 0) == 0

    def test_live_page_indexes(self):
        lun = one_block(4)
        lun.program_next(0, (0, 1), 0)
        lun.program_next(0, (1, 1), 0)
        lun.program_next(0, (2, 1), 0)
        lun.invalidate(0, 1)
        assert lun.live_page_indexes(0) == [0, 2]


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
        lun.take_free_block(0)
        lun.program_next(0, (0, 1), 0)
        lun.program_next(0, (1, 1), 0)
        lun.invalidate(0, 0)
        assert lun.state.live_count[0] == 1
        assert lun.state.dead_count[0] == 1
        assert lun.total_free_pages() == 6
        assert lun.erase_counts() == [0, 0]

    def test_block_ids_are_lun_local(self):
        """A LUN's block operations act on its own span of the shared
        state: block 1 of LUN index 2 is global block 2 * 4 + 1."""
        state = FlashState(3, 4, 4)
        lun = Lun(1, 0, 4, 4, state=state, lun_index=2)
        lun.program_next(1, (7, 1), 0)
        assert state.write_pointer.tolist() == [0] * 9 + [1] + [0] * 2
        assert lun.read(1, 0) == (7, 1)
        assert state.page_content(9, 0) == (7, 1)


class TestFullyDeadIndex:
    """``FlashState.fully_dead``: per LUN, the global ids of programmed
    blocks without a live page, kept as blocks die."""

    def _lun(self, lun_index=1):
        state = FlashState(2, 4, 4)
        return Lun(0, lun_index, 4, 4, state=state, lun_index=lun_index), state

    def test_invalidating_last_live_page_adds_block(self):
        lun, state = self._lun()
        lun.program_next(2, (0, 1), 0)
        lun.program_next(2, (1, 1), 0)
        lun.invalidate(2, 0)
        assert state.fully_dead == [set(), set()]
        lun.invalidate(2, 1)
        assert state.fully_dead == [set(), {4 + 2}]

    def test_tearing_last_live_page_adds_block(self):
        lun, state = self._lun()
        lun.program_next(3, (0, 1), 0)
        lun.program_next(3, (1, 1), 0)
        lun.invalidate(3, 0)
        lun.mark_torn(3, 1)
        assert state.fully_dead[1] == {4 + 3}

    def test_tearing_a_dead_page_changes_nothing(self):
        lun, state = self._lun()
        lun.program_next(0, (0, 1), 0)
        lun.program_next(0, (1, 1), 0)
        lun.invalidate(0, 0)
        lun.mark_torn(0, 0)
        assert state.fully_dead[1] == set()

    def test_erase_removes_block(self):
        lun, state = self._lun()
        lun.program_next(1, (0, 1), 0)
        lun.invalidate(1, 0)
        assert state.fully_dead[1] == {4 + 1}
        lun.erase(1, 0)
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
        lun.program_next(0, (0, 1), 0)
        lun.program_next(0, (1, 1), 0)
        lun.program_next(1, (2, 1), 0)
        mapping = {0: (PhysicalAddress(0, 0, 0, 0), 1)}
        PowerCycleCoordinator(simulation)._rebuild_validity(array, mapping)
        assert array.state.live_count[:2].tolist() == [1, 0]
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
    """Under any legal op sequence, live+dead+free == pages per block
    and the write pointer equals live+dead."""
    lun = one_block(8)
    state = lun.state
    live_indexes = []
    for op in ops:
        if op == "program" and not lun.is_full(0):
            index = lun.program_next(0, (int(state.write_pointer[0]), 1), 0)
            live_indexes.append(index)
        elif op == "invalidate" and live_indexes:
            lun.invalidate(0, live_indexes.pop(0))
        elif op == "erase" and lun.erasable(0) and not live_indexes:
            lun.erase(0, 0)
        # Invariants hold after every step:
        assert state.live_count[0] + state.dead_count[0] == state.write_pointer[0]
        assert lun.total_free_pages() == 8 - state.write_pointer[0]
        assert state.live_count[0] == len(live_indexes)
