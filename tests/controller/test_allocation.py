"""Tests for the write allocator."""


from repro.core.config import AllocationPolicy, TemperatureDetector
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

from tests.controller.conftest import make_harness


def alloc_harness(policy=AllocationPolicy.ROUND_ROBIN, mutate=None):
    def apply(config):
        config.controller.allocation = policy
        if mutate is not None:
            mutate(config)

    return make_harness(apply)


def _program(lun, stream="app"):
    return FlashCommand(
        CommandKind.PROGRAM,
        CommandSource.APPLICATION,
        PhysicalAddress(lun[0], lun[1], -1, -1),
        content=(0, 1),
        stream=stream,
    )


class TestPlacement:
    def test_round_robin_rotates(self):
        harness = alloc_harness(AllocationPolicy.ROUND_ROBIN)
        allocator = harness.controller.allocator
        picks = [allocator.place_write(lpn, {})[0] for lpn in range(4)]
        assert len(set(picks)) == 4  # all four LUNs visited

    def test_stripe_is_deterministic_in_lpn(self):
        harness = alloc_harness(AllocationPolicy.STRIPE)
        allocator = harness.controller.allocator
        assert allocator.place_write(0, {})[0] == allocator.place_write(4, {})[0]
        assert allocator.place_write(1, {})[0] != allocator.place_write(2, {})[0]

    def test_least_queued_prefers_idle_lun(self):
        harness = alloc_harness(AllocationPolicy.LEAST_QUEUED)
        # Load one LUN's queue artificially.
        busy_key = (0, 0)
        queue = harness.controller.scheduler.queues[busy_key]
        for cmd in (_program(busy_key) for _ in range(5)):
            queue[cmd.id] = cmd
        picked, _ = harness.controller.allocator.place_write(0, {})
        assert picked != busy_key

    def test_temperature_policy_splits_streams(self):
        harness = alloc_harness(
            AllocationPolicy.TEMPERATURE,
            mutate=lambda c: setattr(
                c.controller.temperature, "detector", TemperatureDetector.HINT
            ),
        )
        harness.controller.temperature.hint(5, hot=True)
        _, hot_stream = harness.controller.allocator.place_write(5, {})
        _, cold_stream = harness.controller.allocator.place_write(6, {})
        assert hot_stream == "app_hot"
        assert cold_stream == "app_cold"

    def test_locality_policy_groups_by_hint(self):
        harness = alloc_harness(AllocationPolicy.LOCALITY)
        allocator = harness.controller.allocator
        lun_a, stream_a = allocator.place_write(1, {"locality": 3})
        lun_b, stream_b = allocator.place_write(99, {"locality": 3})
        assert (lun_a, stream_a) == (lun_b, stream_b)
        lun_c, _ = allocator.place_write(5, {"locality": 4})
        assert lun_c != lun_a

    def test_locality_without_hint_falls_back(self):
        harness = alloc_harness(AllocationPolicy.LOCALITY)
        _, stream = harness.controller.allocator.place_write(1, {})
        assert stream == "app"


class TestBinding:
    def test_bind_assigns_sequential_pages(self, harness):
        allocator = harness.controller.allocator
        first = allocator.bind_program(_program((0, 0)))
        harness.controller.array.luns[(0, 0)].program_next(first.block, (0, 1), 0)
        second = allocator.bind_program(_program((0, 0)))
        assert second.block == first.block
        assert second.page == first.page + 1

    def test_streams_use_separate_open_blocks(self, harness):
        allocator = harness.controller.allocator
        app = allocator.bind_program(_program((0, 0), stream="app"))
        gc = allocator.bind_program(_program((0, 0), stream="gc"))
        assert app.block != gc.block

    def test_bind_opens_new_block_when_full(self, harness):
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        pages = harness.config.geometry.pages_per_block
        addresses = []
        for i in range(pages + 1):
            address = allocator.bind_program(_program((0, 0)))
            lun.program_next(address.block, (i, 1), 0)
            addresses.append(address)
        assert addresses[-1].block != addresses[0].block
        assert addresses[-1].page == 0

    def test_reserve_blocks_protected_from_app(self, harness):
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        # Drain free blocks down to the reserve.
        while len(lun.free_block_ids) > allocator.gc_reserve:
            block_id = min(lun.free_block_ids)
            lun.take_free_block(block_id)
        app = _program((0, 0), stream="app")
        gc = _program((0, 0), stream="gc")
        assert not allocator.can_bind(app)
        assert allocator.can_bind(gc)

    def test_free_block_taken_callback_fires(self, harness):
        taken = []
        allocator = harness.controller.allocator
        allocator.on_free_block_taken = taken.append
        address = allocator.bind_program(_program((0, 0)))
        assert taken == [(0, 0)]
        assert address.block not in harness.controller.array.luns[(0, 0)].free_block_ids

    def test_note_erased_clears_stale_registration(self, harness):
        allocator = harness.controller.allocator
        address = allocator.bind_program(_program((0, 0)))
        assert allocator.open_blocks  # registered
        allocator.note_erased((0, 0), address.block)
        assert not any(
            block == address.block for (key, _), block in allocator.open_blocks.items()
            if key == (0, 0)
        )


class TestDynamicWearLeveling:
    def test_hot_stream_gets_young_block_cold_gets_old(self, harness):
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        lun.state.erase_count[3] = 10
        lun.state.erase_count[4] = 0
        hot = allocator.bind_program(_program((0, 0), stream="app_hot"))
        cold = allocator.bind_program(_program((0, 0), stream="app_cold"))
        assert lun.state.erase_count[hot.block] == 0
        assert cold.block == 3

    def test_dynamic_wl_disabled_uses_lowest_id(self):
        harness = alloc_harness(
            mutate=lambda c: setattr(c.controller.wear_leveling, "dynamic", False)
        )
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        lun.state.erase_count[0] = 99  # would repel a hot stream under dynamic WL
        hot = allocator.bind_program(_program((0, 0), stream="app_hot"))
        assert hot.block == 0  # lowest id wins regardless of age


class TestOpenBlockIntrospection:
    def test_full_open_blocks_not_reported(self, harness):
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        address = allocator.bind_program(_program((0, 0)))
        assert address.block in allocator.open_block_ids((0, 0))
        for i in range(harness.config.geometry.pages_per_block):
            lun.program_next(address.block, (i, 1), 0)
        assert address.block not in allocator.open_block_ids((0, 0))


class TestPlaceInternal:
    def test_exclude_skips_lun(self, harness):
        allocator = harness.controller.allocator
        for _ in range(20):
            picked = allocator.place_internal("rebalance", exclude=(0, 0))
            assert picked != (0, 0)

    def test_rotates_over_remaining_luns(self, harness):
        allocator = harness.controller.allocator
        picks = {allocator.place_internal("map") for _ in range(8)}
        assert len(picks) == 4  # all LUNs visited


class TestExplicitBlockBinding:
    """The hybrid FTL's block-bound programs."""

    def _explicit(self, lun, block):
        from repro.hardware.addresses import PhysicalAddress
        from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

        return FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.APPLICATION,
            PhysicalAddress(lun[0], lun[1], block, -1),
            content=(0, 1),
        )

    def test_bind_returns_next_page_of_designated_block(self, harness):
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        lun.take_free_block(3)
        cmd = self._explicit((0, 0), 3)
        assert allocator.can_bind(cmd)
        address = allocator.bind_program(cmd)
        assert (address.block, address.page) == (3, 0)
        lun.program_next(3, (0, 1), 0)
        assert allocator.bind_program(self._explicit((0, 0), 3)).page == 1

    def test_full_designated_block_not_bindable(self, harness):
        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        lun.take_free_block(3)
        for i in range(harness.config.geometry.pages_per_block):
            lun.program_next(3, (i, 1), 0)
        assert not allocator.can_bind(self._explicit((0, 0), 3))


class TestGcStreamFallback:
    def test_gc_bind_falls_back_to_sibling_open_block(self, harness):
        from repro.hardware.addresses import PhysicalAddress
        from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

        allocator = harness.controller.allocator
        lun = harness.controller.array.luns[(0, 0)]
        # Drain every free block so no new gc block can open.
        gc_cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.GC,
            PhysicalAddress(0, 0, -1, -1),
            content=(0, 1),
            stream="gc",
        )
        first = allocator.bind_program(gc_cmd)  # opens the gc block
        lun.program_next(first.block, (0, 1), 0)
        while lun.free_block_ids:
            lun.take_free_block(min(lun.free_block_ids))
        # gc_cold cannot open a new block but must spill into gc's.
        cold_cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.GC,
            PhysicalAddress(0, 0, -1, -1),
            content=(1, 1),
            stream="gc_cold",
        )
        assert allocator.can_bind(cold_cmd)
        address = allocator.bind_program(cold_cmd)
        assert address.block == first.block
