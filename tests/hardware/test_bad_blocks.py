"""Tests for bad-block masking and endurance retirement.

Paper Section 1: "the FTL relies on wear leveling (WL) to distribute the
erase count across flash blocks and mask bad blocks."
"""

import numpy as np
import pytest

from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind
from repro.hardware.flash import Lun

from tests.controller.conftest import make_harness
from tests.hardware.test_array import make_array, program_page, submit


class TestLunBadBlockMasking:
    def test_factory_bad_blocks_excluded_from_free_pool(self):
        lun = Lun(0, 0, 8, 4, bad_blocks={2, 5})
        assert set(lun.free_block_ids) == {0, 1, 3, 4, 6, 7}
        assert lun.state.bad.tolist() == [0, 0, 1, 0, 0, 1, 0, 0]
        assert lun.usable_blocks == 6

    def test_retire_block_removes_from_free_pool(self):
        lun = Lun(0, 0, 4, 4)
        lun.retire_block(1)
        assert 1 not in lun.free_block_ids
        assert lun.state.bad.tolist() == [0, 1, 0, 0]
        assert lun.usable_blocks == 3


class TestEnduranceRetirement:
    def _worn_array(self, endurance=2):
        sim, array = make_array()
        array.timings.endurance_cycles = endurance
        return sim, array

    def test_block_retired_at_endurance(self):
        sim, array = self._worn_array(endurance=1)
        address = program_page(sim, array)
        lun = array.lun_grid[0][0]
        lun.invalidate(address.block, address.page)
        submit(
            sim, array, CommandKind.ERASE,
            address=PhysicalAddress(0, 0, address.block, 0),
        )
        sim.run()
        assert array.state.bad[address.block]
        assert address.block not in lun.free_block_ids
        assert array.retired_blocks == 1

    def test_block_survives_below_endurance(self):
        sim, array = self._worn_array(endurance=5)
        address = program_page(sim, array)
        lun = array.lun_grid[0][0]
        lun.invalidate(address.block, address.page)
        submit(
            sim, array, CommandKind.ERASE,
            address=PhysicalAddress(0, 0, address.block, 0),
        )
        sim.run()
        assert not array.state.bad[address.block]
        assert address.block in lun.free_block_ids


class TestSystemWithBadBlocks:
    def test_device_operates_with_factory_bad_blocks(self):
        def mutate(config):
            config.geometry.bad_block_rate = 0.05
            config.controller.overprovisioning = 0.25

        harness = make_harness(mutate)
        state = harness.controller.array.state
        assert state.bad.sum() > 0
        versions = {}
        for round_ in range(2):
            for lpn in range(harness.config.logical_pages):
                harness.write(lpn)
                versions[lpn] = versions.get(lpn, 0) + 1
            harness.run()
        harness.controller.check_invariants()
        # Bad blocks never receive data.
        assert not state.write_pointer[state.bad != 0].any()
        assert harness.read_sync(0).data == (0, versions[0])

    def test_bad_block_map_is_deterministic(self):
        def mutate(config):
            config.geometry.bad_block_rate = 0.08
            config.controller.overprovisioning = 0.25

        maps = []
        for _ in range(2):
            harness = make_harness(mutate)
            maps.append(np.nonzero(harness.controller.array.state.bad)[0].tolist())
        assert maps[0] and maps[0] == maps[1]

    def test_wear_leveling_extends_lifetime(self):
        """With finite endurance and a hotspot, WL defers block deaths:
        more writes complete before any block retires."""
        def run(wl_enabled):
            def mutate(config):
                config.timings.endurance_cycles = 12
                config.controller.overprovisioning = 0.25
                wl = config.controller.wear_leveling
                wl.enabled = wl_enabled
                wl.dynamic = wl_enabled
                wl.check_interval_erases = 8
                wl.erase_count_threshold = 0
                wl.idle_factor = 0.1

            harness = make_harness(mutate)
            pages = harness.config.logical_pages
            for lpn in range(pages):
                harness.write(lpn)
            harness.run()
            hot = range(pages // 10)
            writes_done = 0
            for round_ in range(40):
                if harness.controller.array.retired_blocks > 0:
                    break
                for lpn in hot:
                    harness.write(lpn)
                    writes_done += 1
                harness.run()
            return writes_done, harness.controller.array.retired_blocks

        with_wl, _ = run(True)
        without_wl, retired = run(False)
        assert retired > 0  # the hotspot does wear blocks out without WL
        assert with_wl >= without_wl

    def test_validation_rejects_absurd_rate(self):
        from repro import small_config

        config = small_config()
        config.geometry.bad_block_rate = 0.6
        with pytest.raises(ValueError):
            config.validate()

    def test_feasibility_accounts_for_bad_rate(self):
        from repro import small_config

        config = small_config()
        config.geometry.bad_block_rate = 0.15  # eats the OP slack
        with pytest.raises(ValueError, match="infeasible"):
            config.validate()
