"""Power-cycle orchestration: tear down, recover, remount, audit.

:class:`PowerCycleCoordinator` executes one full power cycle at the
instant a scheduled :class:`~repro.core.power.PowerLossEvent` fires:

1. The flash array halts: in-flight programs leave *torn* pages, channel
   and LUN occupancy clears (``SsdArray.power_loss``).
2. Every scheduled device-side event (controller, hardware, reliability
   continuations) is purged from the engine; host-side events survive
   but are later shifted past the outage + mount window.
3. Durable truth is captured: the committed mapping (for the divergence
   check), the battery-RAM journal/checkpoint, and -- battery-backed
   mode only -- the write-buffer contents.
4. The configured recovery strategy rebuilds the mapping from durable
   state alone and prices the mount (:mod:`repro.reliability.recovery`).
5. Page validity is rebuilt from the recovered mapping, fully-dead
   blocks are erased during mount, and a fresh :class:`SsdController`
   is wired around the surviving array.  Hybrid FTLs additionally
   consolidate their recovered log pool at mount time.
6. The host resumes at ``restore + mount``: its events are shifted,
   in-flight IOs complete with ``POWER_FAIL``, and the
   :class:`DurabilityAuditor` verifies that no acknowledged write was
   lost and that the recovered mapping references only intact pages.

The coordinator raises :class:`~repro.core.sanitize.SanitizerError`
unconditionally (not only in sanitize mode) when recovery diverges from
the pre-crash committed mapping or the durability audit fails: both
indicate crash-consistency bugs, never legitimate outcomes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core.config import RecoveryStrategy
from repro.core.events import IoRequest, IoStatus, IoType
from repro.core.power import CrashStats, MountReport, PowerLossEvent
from repro.core.sanitize import SanitizerError
from repro.hardware.state import popcounts
from repro.host.interface import install_standard_handlers
from repro.reliability.recovery import (
    CheckpointJournalRecovery,
    OobScanRecovery,
    RecoveredState,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController
    from repro.core.simulation import Simulation
    from repro.hardware.array import SsdArray

#: Event callables whose defining module starts with one of these lose
#: power with the device; everything else is host-side and survives.
DEVICE_EVENT_PREFIXES = ("repro.controller", "repro.hardware", "repro.reliability")


def build_recovery_strategy(strategy: RecoveryStrategy):
    if strategy is RecoveryStrategy.CHECKPOINT_JOURNAL:
        return CheckpointJournalRecovery()
    return OobScanRecovery()


class DurabilityAuditor:
    """The crash-consistency contract, checked at every mount.

    Observes every completion interrupt the OS receives and maintains a
    per-LPN *floor*: the newest acknowledged write version (trims clear
    it -- an acknowledged trim discards the obligation).  After a mount
    the floor must be covered by the recovered mapping or the restored
    battery-backed buffer, and every recovered mapping entry must point
    at an intact page carrying exactly its ``(lpn, version)`` token --
    acknowledged writes are never lost, unacknowledged writes are never
    half-visible.
    """

    def __init__(self) -> None:
        #: lpn -> newest acknowledged write version.
        self.floors: dict[int, int] = {}
        self.audits_passed = 0

    def on_completion(self, io: IoRequest) -> None:
        """OS hook: called for every completion interrupt delivered."""
        if io.status is not IoStatus.OK:
            return
        if io.io_type is IoType.WRITE and io.version is not None:
            if io.version > self.floors.get(io.lpn, 0):
                self.floors[io.lpn] = io.version
        elif io.io_type is IoType.TRIM:
            self.floors.pop(io.lpn, None)

    def forgive_trim(self, lpn: int) -> None:
        """A trim was in flight when power failed: it completes with
        ``POWER_FAIL`` and its effect is legitimately indeterminate, so
        the host may no longer rely on the page's durability."""
        self.floors.pop(lpn, None)

    def audit(
        self,
        mapping: dict[int, tuple],
        restored_buffer: list[tuple[int, dict, int]],
        array: "SsdArray",
    ) -> None:
        buffered: dict[int, int] = {}
        for lpn, _hints, version in restored_buffer:
            if version > buffered.get(lpn, 0):
                buffered[lpn] = version
        for lpn in sorted(self.floors):
            floor = self.floors[lpn]
            entry = mapping.get(lpn)
            durable = entry[1] if entry is not None else 0
            durable = max(durable, buffered.get(lpn, 0))
            if durable < floor:
                raise SanitizerError(
                    "durability-audit",
                    f"acknowledged write lost across power cycle (lpn {lpn})",
                    {"lpn": lpn, "acknowledged": floor, "recovered": durable},
                )
        state = array.state
        for lpn in sorted(mapping):
            address, version = mapping[lpn]
            ppn = array.codec.encode(address.channel, address.lun, address.block, address.page)
            block_id = ppn // state.pages_per_block
            torn = bool(state.page_bit(state.mv_torn, block_id, address.page))
            content = state.page_content(block_id, address.page)
            if torn or content != (lpn, version):
                raise SanitizerError(
                    "durability-audit",
                    f"recovered mapping references a torn or foreign page (lpn {lpn})",
                    {
                        "lpn": lpn,
                        "address": str(address),
                        "expected": (lpn, version),
                        "found": None if torn else content,
                        "torn": torn,
                    },
                )
        self.audits_passed += 1


class PowerCycleCoordinator:
    """Executes scheduled power cycles for one :class:`Simulation`."""

    def __init__(self, simulation: "Simulation"):
        self.simulation = simulation
        self.auditor = DurabilityAuditor()
        self.stats = CrashStats()
        self.strategy = build_recovery_strategy(simulation.config.crash.strategy)

    # ------------------------------------------------------------------
    # The power cycle
    # ------------------------------------------------------------------
    def power_cycle(self, loss: PowerLossEvent) -> MountReport:
        from repro.controller.controller import SsdController

        simulation = self.simulation
        sim = simulation.sim
        config = simulation.config
        os = simulation.os
        old = simulation.controller
        array = old.array
        now = sim.now
        old.tracer.record(
            now, "crash", "power-loss",
            f"outage {loss.off_ns}ns, {os.outstanding} IOs in flight",
        )

        # In-flight trims complete with POWER_FAIL: their effect on the
        # durable mapping is legitimately indeterminate.
        for io_id in sorted(os._inflight):
            io = os._inflight[io_id]
            if io.io_type is IoType.TRIM:
                self.auditor.forgive_trim(io.lpn)

        # 1. The device loses power: in-flight programs tear their target
        # pages, and every scheduled device-side continuation dies.
        torn = array.power_loss()
        sim.power_cycle_purge(DEVICE_EVENT_PREFIXES, 0)

        # 2. Capture durable truth before any volatile object is dropped.
        committed = old.ftl.snapshot_map()
        issued_versions = old.ftl._issued_versions.to_dict()
        committed_versions = old.ftl._committed_versions.to_dict()
        buffer_snapshot: list[tuple[int, dict, int]] = []
        battery_backed = True
        if old.write_buffer is not None:
            battery_backed = old.write_buffer.battery_backed
            buffer_snapshot = old.write_buffer.snapshot_entries()

        # 3. Reconstruct the mapping from durable state alone (the old
        # controller still holds the battery-RAM journal/checkpoint).
        recovered = self.strategy.recover(old)
        self._check_divergence(recovered, committed, loss)

        # 4. Durable media state for the new life: page validity derived
        # from the recovered mapping, fully-dead blocks erased at mount.
        self._rebuild_validity(array, recovered.mapping)
        cleanup_erases, cleanup_ns = self._mount_cleanup(array, config)

        # 5. A fresh controller around the surviving array.
        new = SsdController(
            sim,
            config,
            rng=old.rng,
            tracer=old.tracer,
            stats=old.stats,
            existing_array=array,
            crash_armed=True,
        )
        new.ftl.rebuild_from_recovery(recovered.mapping, issued_versions, committed_versions)
        consolidation_ns, consolidation_erases = self._consolidation_cost(new, config)
        self._carry_counters(old, new)
        if new.checkpointer is not None:
            new.checkpointer.seed(recovered.mapping)
        if new.reliability is not None and new.reliability.parity is not None:
            new.reliability.parity.resync(array)

        # 6. Rebase the surviving (host-side) world past outage + mount.
        # Events the mount itself scheduled (checkpoint timer, flush
        # continuations) shift with it: "x after the mount started"
        # becomes "x after the device is ready".
        mount_ns = recovered.mount_ns + cleanup_ns + consolidation_ns
        # max() covers a loss scheduled while the device was still down
        # from the previous one: the restore then happens "now".
        ready_ns = max(loss.restore.at_ns, now) + mount_ns
        sim.power_cycle_purge((), ready_ns - now)
        sim.advance_to(ready_ns)

        # 7. Rewire the host to the remounted device.
        simulation.controller = new
        os.controller = new
        new.on_io_complete = os._interrupt
        os.open_interface.unregister("set_temperature")
        os.open_interface.unregister("get_statistics")
        install_standard_handlers(os.open_interface, new)
        lost_buffered = 0
        if battery_backed:
            if buffer_snapshot and new.write_buffer is not None:
                new.write_buffer.restore(buffer_snapshot)
        else:
            # Volatile buffer: entries whose version never reached flash
            # are gone.  None was acknowledged (volatile mode defers the
            # ack until the flush lands), so no durability promise broke.
            for lpn, _hints, version in buffer_snapshot:
                entry = recovered.mapping.get(lpn)
                if entry is None or entry[1] < version:
                    lost_buffered += 1
        os.power_fail_inflight(ready_ns)

        # 8. The contract.  Audited against the FTL's *post-mount* map:
        # hybrid log-pool consolidation may have relocated recovered
        # entries (and erased their source blocks) during the mount.
        restored = buffer_snapshot if battery_backed else []
        self.auditor.audit(new.ftl.snapshot_map(), restored, array)

        report = MountReport(
            strategy=self.strategy.name,
            loss_ns=loss.at_ns,
            restore_ns=loss.restore.at_ns,
            mount_time_ns=mount_ns,
            scanned_pages=recovered.scanned_pages,
            replayed_records=recovered.replayed_records,
            lost_writes=lost_buffered + len(torn),
            torn_pages=len(torn),
            recovered_entries=len(recovered.mapping),
            cleanup_erases=cleanup_erases + consolidation_erases,
            mapping_matches=True,
        )
        self.stats.add(report)
        new.tracer.record(
            ready_ns, "crash", "mount",
            f"{self.strategy.name}: {report.recovered_entries} entries in "
            f"{mount_ns}ns ({report.scanned_pages} pages scanned, "
            f"{report.replayed_records} records replayed, "
            f"{report.lost_writes} writes lost)",
        )
        return report

    # ------------------------------------------------------------------
    # Steps
    # ------------------------------------------------------------------
    def _check_divergence(
        self,
        recovered: RecoveredState,
        committed: dict[int, tuple],
        loss: PowerLossEvent,
    ) -> None:
        """The recovered mapping must be version-identical to the
        pre-crash committed mapping (addresses may differ only for
        entries a relocation raced -- versions never do)."""
        recovered_versions = {
            lpn: entry[1] for lpn, entry in recovered.mapping.items()
        }
        committed_only = {
            lpn: entry[1] for lpn, entry in committed.items()
        }
        if recovered_versions == committed_only:
            return
        missing = sorted(set(committed_only) - set(recovered_versions))[:5]
        extra = sorted(set(recovered_versions) - set(committed_only))[:5]
        wrong = sorted(
            lpn
            for lpn in set(recovered_versions) & set(committed_only)
            if recovered_versions[lpn] != committed_only[lpn]
        )[:5]
        raise SanitizerError(
            "crash-recovery-divergence",
            f"{self.strategy.name} recovery diverged from the committed mapping",
            {
                "loss_ns": loss.at_ns,
                "committed_entries": len(committed_only),
                "recovered_entries": len(recovered_versions),
                "missing_lpns": missing,
                "unexpected_lpns": extra,
                "version_mismatches": wrong,
            },
        )

    def _rebuild_validity(self, array: "SsdArray", mapping: dict[int, tuple]) -> None:
        """Page validity is controller metadata (OOB marks in the model):
        after recovery, exactly the pages the mapping references are
        live; every other programmed page -- superseded copies, torn
        programs, orphaned DFTL translation pages -- is dead space.

        Vectorized as a bitmap rewrite: the new ``valid`` bitmap is the
        referenced PPN set minus torn pages, with retired blocks keeping
        their (unmapped) state, and the live/dead counters recomputed as
        per-block popcounts.
        """
        state = array.state
        encode = array.codec.encode
        ref_ppns = np.fromiter(
            (
                encode(a.channel, a.lun, a.block, a.page)
                for a in (mapping[lpn][0] for lpn in sorted(mapping))
            ),
            dtype=np.int64,
            count=len(mapping),
        )
        new_valid = np.zeros_like(state.valid)
        page = ref_ppns % state.pages_per_block
        word = (ref_ppns // state.pages_per_block) * state.words_per_block + (page >> 6)
        bit = (page & np.int64(63)).astype(np.uint64)
        np.bitwise_or.at(new_valid, word, np.uint64(1) << bit)
        new_valid &= ~state.torn
        bad = state.bad != 0
        state.block_words(new_valid)[bad] = state.block_words(state.valid)[bad]
        # Remount rebuilds validity/counters wholesale from the recovered
        # mapping; this bulk overwrite *is* the recovery mutator, so the
        # leaked-view rule is waived for these three stores.
        # simlint: disable=SIM012 -- bulk state rebuild during remount
        state.valid[:] = new_valid
        live = popcounts(state.block_words(state.valid)).sum(axis=1).astype(np.int64)
        good = ~bad
        # simlint: disable=SIM012 -- bulk state rebuild during remount
        state.live_count[good] = live[good]
        state.dead_count[good] = state.write_pointer[good] - live[good]  # simlint: disable=SIM012 -- bulk rebuild
        state.reseed_fully_dead()

    def _mount_cleanup(self, array: "SsdArray", config) -> tuple[int, int]:
        """Erase fully-dead blocks while the device is still mounting.

        A real mount reclaims blocks whose every page is superseded (old
        DFTL translation blocks, torn tails) before accepting IO; here it
        also returns taken-but-never-programmed open blocks to the free
        pool.  Erases run parallel across LUNs, so the mount pays the
        slowest LUN's erase chain.
        """
        now = self.simulation.sim.now
        t_erase_ns = config.timings.t_erase_ns
        total = 0
        slowest_ns = 0
        state = array.state
        for lun_key in sorted(array.luns):
            lun = array.luns[lun_key]
            lun_erases = 0
            start, _ = state.block_range(lun.lun_index)
            for block_id in range(lun.blocks_per_lun):
                global_id = start + block_id
                if state.mv_bad[global_id]:
                    continue
                if state.mv_write_pointer[global_id] == 0:
                    if block_id not in lun.free_block_ids:
                        # An open block the old allocator took but never
                        # programmed: already erased, just re-pool it.
                        lun.on_block_erased(block_id)
                    continue
                if state.mv_live_count[global_id] == 0:
                    lun.erase(block_id, now)
                    lun.on_block_erased(block_id)
                    lun_erases += 1
            total += lun_erases
            slowest_ns = max(slowest_ns, lun_erases * t_erase_ns)
        return total, slowest_ns

    def _consolidation_cost(self, controller: "SsdController", config) -> tuple[int, int]:
        """Price the hybrid FTL's mount-time log-pool consolidation
        (serial merge stream: reads + programs + erases back to back)."""
        work: Optional[dict[str, int]] = getattr(
            controller.ftl, "mount_consolidation", None
        )
        if not work:
            return 0, 0
        timings = config.timings
        page_transfer = timings.transfer_ns(config.geometry.page_size_bytes)
        ns = (
            work["reads"] * (timings.t_cmd_ns + timings.t_read_ns + page_transfer)
            + work["programs"] * (timings.t_cmd_ns + page_transfer + timings.t_prog_ns)
            + work["erases"] * timings.t_erase_ns
        )
        return ns, work["erases"]

    def _carry_counters(self, old: "SsdController", new: "SsdController") -> None:
        """Cumulative run counters survive the crash: they describe the
        experiment, not the controller incarnation.  Every
        :data:`~repro.controller.controller.RUN_COUNTERS` row is additive
        (the hybrid mount consolidation already incremented some of the
        new FTL's merge counters); the high-watermarks carry their max."""
        from repro.controller.controller import RUN_COUNTERS

        if old.overload is not None:
            # Close a degraded interval still open at the loss.
            old.overload.time_degraded_ns = old.overload.time_degraded_total(
                self.simulation.sim.now
            )
        for module_name, attr, _ in RUN_COUNTERS:
            old_module = getattr(old, module_name)
            new_module = getattr(new, module_name)
            if old_module is None or new_module is None or not hasattr(new_module, attr):
                continue
            setattr(new_module, attr, getattr(new_module, attr) + getattr(old_module, attr))
        new.scheduler._queue_high_watermark = max(
            new.scheduler._queue_high_watermark, old.scheduler._queue_high_watermark
        )
        if old.reliability is not None and new.reliability is not None:
            new.reliability.max_retry_index_seen = max(
                new.reliability.max_retry_index_seen, old.reliability.max_retry_index_seen
            )
            # Degradation state and fault-plan consumption are physical:
            # a remount does not un-retire blocks or re-arm spent faults.
            new.reliability.read_only = old.reliability.read_only
            new.reliability.read_only_entry_ns = old.reliability.read_only_entry_ns
            new.reliability._erase_attempts = dict(old.reliability._erase_attempts)
            new.reliability._program_attempts = dict(old.reliability._program_attempts)
            new.reliability._forced_reads = dict(old.reliability._forced_reads)
