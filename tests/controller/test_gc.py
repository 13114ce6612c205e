"""Tests for the garbage collector."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, FtlKind
from repro.core.config import GcVictimPolicy

from tests.conftest import pbn
from tests.controller.conftest import ControllerHarness, make_harness


def gc_harness(greediness=2, policy=GcVictimPolicy.GREEDY, copyback=True, mutate=None):
    def apply(config):
        config.controller.gc_greediness = greediness
        config.controller.gc_victim_policy = policy
        config.controller.enable_copyback = copyback
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


def overwrite_workload(harness: ControllerHarness, rounds=4, stride=2):
    """Fill the logical space, then overwrite every ``stride``-th page
    for ``rounds`` rounds.  ``stride > 1`` leaves live pages interleaved
    with dead ones, so GC victims carry live data to relocate."""
    for lpn in range(harness.config.logical_pages):
        harness.write(lpn)
    harness.run()
    for round_ in range(rounds):
        for lpn in range(0, harness.config.logical_pages, stride):
            harness.write(lpn)
        harness.run()


class TestTriggering:
    def test_no_gc_without_pressure(self, harness):
        for lpn in range(32):
            harness.write(lpn)
        harness.run()
        assert harness.controller.gc.collected_blocks == 0

    def test_sustained_overwrites_trigger_gc(self):
        harness = gc_harness()
        overwrite_workload(harness, rounds=3)
        assert harness.controller.gc.collected_blocks > 0
        harness.controller.check_invariants()

    def test_watermark_restored_at_quiescence(self):
        harness = gc_harness(greediness=3)
        overwrite_workload(harness, rounds=3)
        for lun_key, lun in harness.controller.array.luns.items():
            if len(lun.free_block_ids) >= 3:
                continue
            # Below the watermark is acceptable only when nothing is
            # reclaimable: every dead page sits in an open block.
            open_blocks = harness.controller.allocator.open_block_ids(lun_key)
            for block_id in range(lun.blocks_per_lun):
                if block_id not in open_blocks:
                    assert lun.state.dead_count[pbn(lun, block_id)] == 0, (lun_key, block_id)

    def test_higher_greediness_costs_write_amplification(self):
        """The paper's GC trade-off: collecting early (high greediness)
        means victims still hold live pages, so relocation work -- and
        hence write amplification -- is at least that of lazy GC."""
        eager = gc_harness(greediness=4)
        lazy = gc_harness(greediness=1)
        overwrite_workload(eager, rounds=3)
        overwrite_workload(lazy, rounds=3)
        assert (
            eager.controller.stats.write_amplification()
            >= lazy.controller.stats.write_amplification()
        )

    def test_one_job_per_lun(self):
        harness = gc_harness()
        overwrite_workload(harness, rounds=2)
        # The invariant is structural: the dict is keyed by LUN, so at
        # most one job per LUN can ever exist.
        assert set(harness.controller.gc.active_jobs) <= set(harness.controller.array.luns)


class TestDataPreservation:
    def test_gc_preserves_every_mapping(self):
        harness = gc_harness()
        versions = {}
        for round_ in range(4):
            for lpn in range(harness.config.logical_pages):
                harness.write(lpn)
                versions[lpn] = versions.get(lpn, 0) + 1
            harness.run()
        assert harness.controller.gc.collected_blocks > 0
        harness.controller.check_invariants()
        for lpn in range(0, harness.config.logical_pages, 97):
            assert harness.read_sync(lpn).data == (lpn, versions[lpn])

    def test_gc_with_concurrent_reads(self):
        harness = gc_harness()
        for lpn in range(harness.config.logical_pages):
            harness.write(lpn)
        harness.run()
        # Interleave overwrites and reads without draining in between.
        for round_ in range(3):
            for lpn in range(0, harness.config.logical_pages, 2):
                harness.write(lpn)
                harness.read((lpn + 1) % harness.config.logical_pages)
        harness.run()
        harness.controller.check_invariants()
        reads = [io for io in harness.completed if io.is_read]
        for io in reads:
            assert io.data is not None
            assert io.data[0] == io.lpn


class TestCopyback:
    def test_copyback_used_when_enabled(self):
        harness = gc_harness(copyback=True)
        overwrite_workload(harness, rounds=3)
        assert harness.controller.gc.copyback_relocations > 0
        flash = harness.controller.stats.flash_commands
        assert flash.get(("GC", "COPYBACK"), 0) > 0
        # Same-LUN relocations all use copyback; any GC read+program
        # pairs stem from cross-LUN rebalancing evictions only.
        assert flash.get(("GC", "PROGRAM"), 0) == flash.get(("GC", "READ"), 0)

    def test_read_program_used_when_disabled(self):
        harness = gc_harness(copyback=False)
        overwrite_workload(harness, rounds=3)
        flash = harness.controller.stats.flash_commands
        assert flash.get(("GC", "COPYBACK"), 0) == 0
        assert flash.get(("GC", "READ"), 0) > 0
        assert flash.get(("GC", "PROGRAM"), 0) > 0

    def test_chip_without_copyback_support_forces_read_program(self):
        harness = gc_harness(
            copyback=True,
            mutate=lambda c: setattr(c.timings, "supports_copyback", False),
        )
        overwrite_workload(harness, rounds=3)
        assert harness.controller.stats.flash_commands.get(("GC", "COPYBACK"), 0) == 0


class TestVictimPolicies:
    @pytest.mark.parametrize("policy", list(GcVictimPolicy))
    def test_every_policy_completes_and_preserves(self, policy):
        harness = gc_harness(policy=policy)
        overwrite_workload(harness, rounds=3)
        harness.controller.check_invariants()
        assert harness.controller.gc.collected_blocks > 0

    def test_greedy_beats_random_on_write_amplification(self):
        def uniform_overwrites(harness, count=4000):
            """Random overwrites leave blocks with varied liveness --
            exactly where victim choice matters."""
            pages = harness.config.logical_pages
            for lpn in range(pages):
                harness.write(lpn)
            harness.run()
            for step in range(count):
                harness.write((step * 1103515245 + 12345) % pages)
            harness.run()

        greedy = gc_harness(policy=GcVictimPolicy.GREEDY)
        random_ = gc_harness(policy=GcVictimPolicy.RANDOM)
        uniform_overwrites(greedy)
        uniform_overwrites(random_)
        assert (
            greedy.controller.stats.write_amplification()
            < random_.controller.stats.write_amplification()
        )


class TestRebalancing:
    def test_stripe_hotspot_rebalances_instead_of_deadlocking(self):
        """The sequential fill puts every ``luns``-th LPN on LUN 0;
        rewriting that stripe round-robin piles live data onto the other
        LUNs until one holds no block with a dead page.  Only a
        rebalancing job can free space there, and it must run.  (A STRIPE
        hotspot never gets there: each rewrite kills a page on the LUN
        it lands on.)"""
        from repro.core.config import AllocationPolicy

        harness = gc_harness(
            mutate=lambda c: setattr(c.controller, "allocation", AllocationPolicy.ROUND_ROBIN)
        )
        pages = harness.config.logical_pages
        total_luns = harness.config.geometry.total_luns
        for lpn in range(pages):
            harness.write(lpn)
        harness.run()
        lun0 = [lpn for lpn in range(pages) if lpn % total_luns == 0]
        for round_ in range(6):
            for lpn in lun0:
                harness.write(lpn)
            harness.run()
        harness.controller.check_invariants()
        assert len(harness.completed) == pages + 6 * len(lun0)
        assert harness.controller.gc.balancing_jobs > 0

    @pytest.mark.xfail(
        strict=True,
        reason="known stall: LEAST_QUEUED rewrites end with 7 commands queued "
        "and 8/1/1/2 free blocks per LUN, after 16 rebalancing jobs",
    )
    def test_least_queued_rewrites_drain(self):
        from repro import FtlKind, Simulation, small_config
        from repro.core.config import AllocationPolicy
        from repro.workloads import precondition_sequential

        from tests.integration.golden_evacuation import _ListWriter

        config = small_config(seed=7)
        config.controller.ftl = FtlKind.DFTL
        config.controller.allocation = AllocationPolicy.LEAST_QUEUED
        config.controller.wear_leveling.enabled = False
        simulation = Simulation(config)
        fill = precondition_sequential(config.logical_pages)
        simulation.add_thread(fill)
        every_fourth = list(range(0, config.logical_pages, 4))
        simulation.add_thread(
            _ListWriter("rewrite", every_fourth, rounds=6, depth=32), depends_on=[fill.name]
        )
        result = simulation.run()
        assert not result.incomplete, (
            f"{simulation.controller.scheduler.total_pending()} commands still queued"
        )


def reference_fully_dead(gc, lun_key, lun):
    """The LUN scan erase-only reclaim ran before the per-LUN index:
    programmed, good, non-free, non-open blocks without a live page,
    ascending."""
    state = lun.state
    start, stop = state.block_range(lun.lun_index)
    mask = state.write_pointer[start:stop] > 0
    mask &= state.live_count[start:stop] == 0
    mask &= state.bad[start:stop] == 0
    mask &= state.block_free[start:stop] == 0
    for block_id in gc.controller.allocator.open_block_ids(lun_key):
        mask[block_id] = False
    return np.nonzero(mask)[0].tolist()


class ReclaimRecorder:
    """Checks every erase-only reclaim against :func:`reference_fully_dead`.

    Each ``_reclaim_fully_dead`` call must enqueue, in order, the
    reference's blocks minus those already being evacuated: at entry,
    or by a nested call (an enqueue pumps the scheduler, which may
    re-enter ``maybe_trigger``) before their turn.
    """

    def __init__(self, gc):
        self.calls = 0
        self.reclaimed = 0
        frames: list[list[int]] = []
        reclaim, finish = gc._reclaim_fully_dead, gc._finish

        def checked_reclaim(lun_key, lun):
            before = set(gc.evacuating)
            candidates = reference_fully_dead(gc, lun_key, lun)
            frames.append([])
            reclaim(lun_key, lun)
            enqueued = frames.pop()
            nested = set(gc.evacuating) - before - {(lun_key, b) for b in enqueued}
            expected = [
                b for b in candidates
                if (lun_key, b) not in before and (lun_key, b) not in nested
            ]
            assert enqueued == expected, (lun_key, enqueued, expected)
            self.calls += 1
            self.reclaimed += len(enqueued)

        def recording_finish(job):
            if frames and job.on_erased == gc._reclaimed:
                frames[-1].append(job.block_id)
            finish(job)

        gc._reclaim_fully_dead = checked_reclaim
        gc._finish = recording_finish


def run_ops(harness, ops):
    """Apply ``(kind, start, length)`` runs of writes or trims."""
    pages = harness.config.logical_pages
    for kind, start, length in ops:
        submit = harness.write if kind == "write" else harness.trim
        for lpn in range(start, min(start + length, pages)):
            submit(lpn)
    harness.run()


class TestFullyDeadReclaim:
    """Erase-only reclaim walks each LUN's ``fully_dead`` set."""

    @settings(
        max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        ftl=st.sampled_from([FtlKind.PAGE, FtlKind.DFTL]),
        greediness=st.sampled_from([1, 2, 4]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["write", "trim"]),
                st.integers(0, 1_600),
                st.integers(1, 96),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_reclaim_matches_reference_scan(self, ftl, greediness, ops):
        harness = gc_harness(
            greediness, mutate=lambda c: setattr(c.controller, "ftl", ftl)
        )
        recorder = ReclaimRecorder(harness.controller.gc)
        harness.fill_device()
        run_ops(harness, ops)
        harness.controller.check_invariants()

    @pytest.mark.parametrize("ftl", [FtlKind.PAGE, FtlKind.DFTL])
    def test_trimmed_blocks_are_reclaimed_erase_only(self, ftl):
        harness = gc_harness(4, mutate=lambda c: setattr(c.controller, "ftl", ftl))
        recorder = ReclaimRecorder(harness.controller.gc)
        harness.fill_device()
        run_ops(harness, [("trim", 0, 600), ("write", 600, 600), ("write", 0, 300)])
        harness.controller.check_invariants()
        assert recorder.reclaimed > 0
        assert recorder.reclaimed == harness.controller.gc.erase_only_reclaims

    def test_released_dead_open_block_is_reclaimed(self):
        """A dead block stays indexed while open (reclaim skips it) and
        is reclaimed once ``release_open_block`` lets it go."""
        harness = gc_harness()
        controller = harness.controller
        gc, allocator = controller.gc, controller.allocator
        gc.greediness = 40  # every LUN below the watermark from the start
        for lpn in range(40):
            harness.write(lpn)
        harness.run()
        lun_key = (0, 0)
        lun = controller.array.luns[lun_key]
        block_id = allocator.open_blocks[(lun_key, "app")]
        for page in lun.live_page_indexes(block_id):
            harness.trim(lun.read(block_id, page)[0])
        harness.run()
        global_id = pbn(lun, block_id)
        state = lun.state
        assert state.write_pointer[global_id] > 0 and state.live_count[global_id] == 0
        assert global_id in state.fully_dead[lun.lun_index]
        gc.maybe_trigger(lun_key)
        assert (lun_key, block_id) not in gc.evacuating  # open: skipped
        allocator.release_open_block(lun_key, block_id)
        gc.maybe_trigger(lun_key)
        assert (lun_key, block_id) in gc.evacuating
        harness.run()
        assert state.write_pointer[global_id] == 0 and state.erase_count[global_id] == 1
        assert gc.erase_only_reclaims == 1
        assert global_id not in lun.state.fully_dead[lun.lun_index]
        controller.check_invariants()

    def test_program_failed_fresh_block_is_retired_not_reclaimed(self):
        """A program failure on a fresh block's first page leaves it dead
        and open; the allocator releases it and GC condemns it.  The
        index must not hand it to erase-only reclaim: it retires, and
        the next walk prunes it."""

        def failing(config):
            config.reliability.enabled = True
            config.reliability.spare_blocks_per_lun = 2
            config.reliability.fault_plan = FaultPlan().fail_program(0, 0, 0, attempt=1)

        harness = make_harness(failing)
        controller = harness.controller
        controller.gc.greediness = 40  # walk the index on every trigger
        for lpn in range(64):
            harness.write(lpn)
        harness.run()
        lun = controller.array.luns[(0, 0)]
        global_id = pbn(lun, 0)
        assert controller.reliability.program_fail_count == 1
        assert lun.state.bad[global_id] and lun.state.erase_count[global_id] == 0
        assert controller.gc.erase_only_reclaims == 0
        assert lun.lun_index * lun.blocks_per_lun not in lun.state.fully_dead[lun.lun_index]
        controller.check_invariants()
