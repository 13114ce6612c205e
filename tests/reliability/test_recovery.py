"""Controller-level tests of the recovery machinery: retry ladder,
parity rebuild, program/erase failure handling and graceful degradation.

Block-targeted faults use the *discovery run* pattern: same-seed runs
are deterministic, so a first run discovers which physical block an
LPN's write lands on (or which block gets erased first), and a second
run installs a :class:`FaultPlan` targeting exactly that block.
"""

import numpy as np
import pytest

from repro import FaultPlan, IoStatus
from repro.hardware.addresses import PhysicalAddress
from repro.reliability import ParityTracker, pack_content

from tests.conftest import pbn
from tests.controller.conftest import make_harness


def reliability_on(config, **overrides):
    config.reliability.enabled = True
    for key, value in overrides.items():
        setattr(config.reliability, key, value)


def latency(io):
    return io.complete_time - io.dispatch_time


class TestPackContent:
    def test_packs_lpn_and_version(self):
        assert pack_content((3, 5)) == (3 << 64) | 5

    def test_negative_lpn_wraps_modulo_2_64(self):
        packed = pack_content((-2, 1))
        assert packed == (((1 << 64) - 2) << 64) | 1

    def test_xor_cancels_identical_contents(self):
        assert pack_content((7, 9)) ^ pack_content((7, 9)) == 0


class TestParityTrackerUnit:
    def test_program_then_signature(self):
        tracker = ParityTracker()
        tracker.on_program(PhysicalAddress(0, 1, 2, 3), (10, 1))
        tracker.on_program(PhysicalAddress(1, 1, 2, 3), (11, 1))
        expected = pack_content((10, 1)) ^ pack_content((11, 1))
        assert tracker.signature(1, 2, 3) == expected
        assert tracker.signature(0, 0, 0) == 0

    def test_check_catches_a_token_changed_behind_its_back(self):
        h = make_harness(lambda c: reliability_on(c, parity=True))
        for lpn in range(8):
            h.write(lpn)
        h.run()
        array = h.controller.array
        parity = h.controller.reliability.parity
        parity.check(array)
        address = h.controller.ftl.mapped_address(3)
        ppn = array.codec.encode(address.channel, address.lun, address.block, address.page)
        array.state.mv_page_lpn[ppn] = 99
        with pytest.raises(AssertionError, match="parity tracker inconsistent"):
            parity.check(array)


class TestDataLoss:
    def test_forced_corruption_without_recovery_loses_data(self):
        plan = FaultPlan().corrupt_read(lpn=3)
        h = make_harness(
            lambda c: reliability_on(c, max_read_retries=0, fault_plan=plan)
        )
        h.write_sync(3)
        io = h.read_sync(3)
        manager = h.controller.reliability
        # The read completes (the device returns *something*) but the
        # host sees the distinct data-loss status.
        assert io.status is IoStatus.UNCORRECTABLE
        assert manager.uncorrectable_reads == 1
        assert manager.read_retries == 0
        assert manager.parity_rebuilds == 0
        # The forced mark is consumed: the next read of the LPN is fine.
        assert h.read_sync(3).status is IoStatus.OK
        h.controller.check_invariants()

    def test_reads_of_other_lpns_unaffected(self):
        plan = FaultPlan().corrupt_read(lpn=3)
        h = make_harness(
            lambda c: reliability_on(c, max_read_retries=0, fault_plan=plan)
        )
        h.write_sync(3)
        h.write_sync(4)
        assert h.read_sync(4).status is IoStatus.OK
        assert h.controller.reliability.uncorrectable_reads == 0


class TestRetryLadder:
    def test_forced_corruption_walks_the_full_ladder(self):
        plan = FaultPlan().corrupt_read(lpn=5)
        h = make_harness(
            lambda c: reliability_on(c, max_read_retries=2, fault_plan=plan)
        )
        h.write_sync(5)
        bad = h.read_sync(5)
        good = h.read_sync(5)
        manager = h.controller.reliability
        assert bad.status is IoStatus.UNCORRECTABLE
        assert manager.read_retries == 2
        assert manager.max_retry_index_seen == 2
        assert manager.uncorrectable_reads == 1
        # Each retry re-issues the flash read through the queues, so the
        # failed read is strictly slower than the clean one that follows.
        assert good.status is IoStatus.OK
        assert latency(bad) > latency(good)
        h.controller.check_invariants()

    def test_decode_latency_taxes_every_read(self):
        def run(ns_per_bit):
            h = make_harness(
                lambda c: reliability_on(
                    c, ecc_correctable_bits=8, ecc_decode_ns_per_bit=ns_per_bit
                )
            )
            h.write_sync(1)
            return h, h.read_sync(1)

        h_free, io_free = run(0)
        h_slow, io_slow = run(1000)
        assert h_free.controller.reliability.read_decode_ns == 0
        assert h_slow.controller.reliability.read_decode_ns == 8000
        # Same seed, same commands: the only difference is the decode.
        assert latency(io_slow) - latency(io_free) == 8000


class TestParityRebuild:
    def test_uncorrectable_read_rebuilt_from_stripe(self):
        plan = FaultPlan().corrupt_read(lpn=2)
        h = make_harness(
            lambda c: reliability_on(
                c, parity=True, max_read_retries=0, fault_plan=plan
            )
        )
        # Populate stripe peers on the other channel before failing.
        for lpn in range(8):
            h.write(lpn)
        h.run()
        io = h.read_sync(2)
        manager = h.controller.reliability
        assert io.status is IoStatus.OK  # recovered: host never notices
        assert manager.parity_rebuilds == 1
        assert manager.uncorrectable_reads == 0
        h.controller.check_invariants()

    def test_retries_run_before_parity_kicks_in(self):
        plan = FaultPlan().corrupt_read(lpn=2)
        h = make_harness(
            lambda c: reliability_on(
                c, parity=True, max_read_retries=2, fault_plan=plan
            )
        )
        for lpn in range(8):
            h.write(lpn)
        h.run()
        io = h.read_sync(2)
        manager = h.controller.reliability
        assert io.status is IoStatus.OK
        assert manager.read_retries == 2
        assert manager.parity_rebuilds == 1
        h.controller.check_invariants()

    def test_parity_invariant_detects_corruption(self):
        h = make_harness(lambda c: reliability_on(c, parity=True))
        for lpn in range(8):
            h.write(lpn)
        h.run()
        h.controller.check_invariants()  # consistent first
        stripes = h.controller.reliability.parity._stripes
        key = next(iter(stripes))
        stripes[key][0] ^= 1  # flip one bit of one stripe signature
        with pytest.raises(AssertionError, match="parity"):
            h.controller.check_invariants()


class TestProgramFailure:
    WRITES = 64  # one block's worth per LUN on small_config: no GC yet

    def _discover(self, lpn):
        """Same-seed discovery run: where does ``lpn``'s write land?"""
        h = make_harness(lambda c: reliability_on(c, spare_blocks_per_lun=2))
        for i in range(self.WRITES):
            h.write(i)
        h.run()
        return h.controller.ftl._map[lpn]

    def test_program_fail_retransmits_and_condemns(self):
        lpn = 10
        addr = self._discover(lpn)
        # Fresh blocks fill page 0,1,2,...: lpn's program was attempt
        # page+1 on that block.
        plan = FaultPlan().fail_program(
            addr.channel, addr.lun, addr.block, attempt=addr.page + 1
        )
        h = make_harness(
            lambda c: reliability_on(c, spare_blocks_per_lun=2, fault_plan=plan)
        )
        for i in range(self.WRITES):
            h.write(i)
        h.run()
        manager = h.controller.reliability
        assert manager.program_fail_count == 1
        assert manager.runtime_retired_blocks == 1
        assert not manager.read_only  # spares absorbed the retirement
        # The write was transparently retransmitted off the bad block.
        new_addr = h.controller.ftl._map[lpn]
        assert (new_addr.channel, new_addr.lun, new_addr.block) != (
            addr.channel,
            addr.lun,
            addr.block,
        )
        # The condemned block drained its live pages and retired.
        lun = h.controller.array.luns[(addr.channel, addr.lun)]
        assert lun.state.bad[pbn(lun, addr.block)]
        assert lun.state.live_count[pbn(lun, addr.block)] == 0
        # Every LPN -- including those relocated off the bad block -- reads back.
        for i in range(self.WRITES):
            assert h.read_sync(i).status is IoStatus.OK
        h.controller.check_invariants()

    def test_spare_exhaustion_enters_read_only(self):
        lpn = 10
        addr = self._discover(lpn)
        plan = FaultPlan().fail_program(
            addr.channel, addr.lun, addr.block, attempt=addr.page + 1
        )
        # Zero spares: the very first retirement exhausts the pool.
        h = make_harness(
            lambda c: reliability_on(c, spare_blocks_per_lun=0, fault_plan=plan)
        )
        for i in range(self.WRITES):
            h.write(i)
        h.run()
        manager = h.controller.reliability
        assert manager.read_only
        assert manager.read_only_entry_ns is not None
        # Writes now fail fast with the distinct status; reads still work.
        rejected = h.write_sync(20)
        assert rejected.status is IoStatus.READ_ONLY
        assert manager.writes_rejected == 1
        assert h.read_sync(lpn).status is IoStatus.OK
        h.controller.check_invariants()


class TestEraseFailure:
    LPNS = 200
    WRITES = 2000  # overwrite workload: forces GC to erase blocks

    def _workload(self, h):
        for i in range(self.WRITES):
            h.write(i % self.LPNS)
        h.run()

    def test_planned_erase_failure_retires_block_in_place(self):
        # Discovery: find a block that GC erased during the workload.
        h = make_harness(lambda c: reliability_on(c, spare_blocks_per_lun=2))
        self._workload(h)
        array = h.controller.array
        erased = np.nonzero(array.state.erase_count)[0]
        assert erased.size, "workload never triggered an erase"
        address = array.codec.decode(int(erased[0]) * array.state.pages_per_block)
        target = (address.channel, address.lun, address.block)

        plan = FaultPlan().fail_erase(*target, attempt=1)
        h = make_harness(
            lambda c: reliability_on(c, spare_blocks_per_lun=2, fault_plan=plan)
        )
        self._workload(h)
        manager = h.controller.reliability
        assert manager.erase_fail_count == 1
        assert manager.runtime_retired_blocks >= 1
        lun = h.controller.array.luns[(target[0], target[1])]
        assert lun.state.bad[pbn(lun, target[2])]
        # The failed erase never completed: the cycle count stayed put.
        assert lun.state.erase_count[pbn(lun, target[2])] == 0
        # The device soldiered on: every LPN still reads back fine.
        for i in range(self.LPNS):
            assert h.read_sync(i).status is IoStatus.OK
        h.controller.check_invariants()
