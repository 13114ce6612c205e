"""Tests for the garbage collector."""

import pytest

from repro.core.config import GcVictimPolicy

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
            for block_id, block in enumerate(lun.blocks):
                if block_id not in open_blocks:
                    assert block.dead_count == 0, (lun_key, block_id)

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
