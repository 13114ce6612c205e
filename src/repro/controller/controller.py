"""The SSD controller: orchestration of mapping, GC, WL and scheduling.

:class:`SsdController` is the device-side endpoint of the host link.  It
receives logical IOs from the operating system layer, routes them through
the optional write buffer and the FTL, turns them into flash commands,
and owns the modules that generate internal traffic (garbage collection,
wear leveling, DFTL mapping IO).  Every flash command funnels through
:meth:`enqueue_command`, which attaches deadlines, read accounting and
the statistics/trace/GC bookkeeping that runs at completion.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.controller.allocation import WriteAllocator
from repro.controller.ftl import build_ftl
from repro.controller.gc import GarbageCollector
from repro.controller.overload import OverloadGovernor
from repro.controller.scheduler import SsdScheduler
from repro.controller.temperature import build_detector
from repro.controller.wear_leveling import WearLeveler
from repro.controller.write_buffer import WriteBuffer
from repro.core.config import RecoveryStrategy, SimulationConfig, TemperatureDetector
from repro.core.engine import Simulator
from repro.core.events import IoRequest, IoType, WriteHints
from repro.core.rng import RandomSource
from repro.core.statistics import StatisticsGatherer
from repro.core.tracing import TraceRecorder
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.memory import MemoryManager
from repro.reliability.recovery import (
    CheckpointManager,
    MappingJournal,
    ReliabilityManager,
)

#: Every cumulative run counter of the modules a power cycle rebuilds, as
#: ``(controller attribute, counter attribute, summary key or None)``.
#: A remount adds each old value onto the new module
#: (``PowerCycleCoordinator._carry_counters``) and
#: :class:`~repro.core.simulation.SimulationResult` reports the keyed
#: rows, 0 when the module is disabled.  FTL rows exist only on the FTL
#: kind that counts them.  The array and the OS survive a power cycle,
#: so their counters are read directly and need no row.
RUN_COUNTERS: tuple[tuple[str, str, Optional[str]], ...] = (
    ("gc", "collected_blocks", "gc_collected_blocks"),
    ("gc", "relocated_pages", "gc_relocated_pages"),
    ("gc", "copyback_relocations", None),
    ("gc", "balancing_jobs", None),
    ("gc", "erase_only_reclaims", None),
    ("gc", "idle_jobs", None),
    ("gc", "condemned_retirements", None),
    ("wear_leveler", "migrations_started", "wl_migrations"),
    ("wear_leveler", "migrated_pages", None),
    ("wear_leveler", "total_erases", None),
    ("write_buffer", "hits", None),
    ("write_buffer", "absorbed_rewrites", None),
    ("write_buffer", "flushed_pages", None),
    # DFTL
    ("ftl", "cmt_hits", None),
    ("ftl", "cmt_misses", None),
    ("ftl", "evictions", None),
    ("ftl", "batched_flush_entries", None),
    ("ftl", "tp_fetch_reads", None),
    # hybrid
    ("ftl", "full_merges", None),
    ("ftl", "switch_merges", None),
    ("ftl", "merged_pages", None),
    ("ftl", "filler_pages", None),
    ("reliability", "corrected_reads", "corrected_reads"),
    ("reliability", "uncorrectable_reads", "uncorrectable_reads"),
    ("reliability", "read_retries", "read_retries"),
    ("reliability", "parity_rebuilds", "parity_rebuilds"),
    ("reliability", "program_fail_count", "program_fails"),
    ("reliability", "erase_fail_count", "erase_fails"),
    ("reliability", "runtime_retired_blocks", "runtime_retired_blocks"),
    ("reliability", "writes_rejected", "writes_rejected"),
    ("overload", "busy_rejections", "device_busy_rejections"),
    ("overload", "shed_ios", "shed_ios"),
    ("overload", "throttled_ios", "throttled_ios"),
    ("overload", "command_timeouts", "command_timeouts"),
    ("overload", "degraded_entries", "degraded_entries"),
    ("overload", "time_degraded_ns", None),
    ("checkpointer", "checkpoints_taken", None),
    ("checkpointer", "checkpoint_pages_written", None),
)


class SsdController:
    """The device: flash array + controller modules behind one interface.

    The OS talks to the controller through :meth:`submit_io` and receives
    completion interrupts through ``on_io_complete`` (a callable the OS
    installs).
    """

    def __init__(
        self,
        sim: Simulator,
        config: SimulationConfig,
        rng: Optional[RandomSource] = None,
        tracer: Optional[TraceRecorder] = None,
        stats: Optional[StatisticsGatherer] = None,
        existing_array: Optional[SsdArray] = None,
        crash_armed: bool = False,
    ):
        self.sim = sim
        self.config = config
        self.rng = rng or RandomSource(config.seed)
        self.tracer = tracer if tracer is not None else TraceRecorder(enabled=config.trace_enabled)
        self.stats = stats or StatisticsGatherer("controller")
        self.memory = MemoryManager(
            config.controller.ram_bytes, config.controller.battery_ram_bytes
        )
        if existing_array is not None:
            # Remount after a power loss: flash contents are durable, so
            # the array object survives the crash; only the controller's
            # volatile modules are rebuilt around it.  The bad-block map
            # is physical state -- never redrawn.
            self.array = existing_array
            self.array.reliability = None
        else:
            self.array = SsdArray(
                sim,
                config.geometry,
                config.timings,
                interleaving=config.controller.enable_interleaving,
                pipelining=config.controller.enable_pipelining,
                tracer=self.tracer,
                bad_blocks=self._draw_bad_blocks(config),
                sanitize=config.sanitize,
            )
        self.temperature = build_detector(config.controller.temperature)
        self.allocator = WriteAllocator(
            self.array,
            config,
            classify=self.temperature.classify,
            queue_depth=self._queue_depth,
        )
        self.scheduler = SsdScheduler(
            sim, self.array, config.controller.scheduler, can_bind=self.allocator.can_bind
        )
        self.array.bind_program = self.allocator.bind_program
        self.array.on_resource_free = self.scheduler.pump
        self.array.on_lun_idle = self.scheduler.on_lun_idle
        self.array.on_command_complete = self._command_complete
        self.ftl = build_ftl(config.controller.ftl, self)
        #: Reliability manager; None (the default) keeps every error
        #: path, RNG stream and completion timing untouched.
        self.reliability: Optional[ReliabilityManager] = None
        if config.reliability.enabled:
            self.reliability = ReliabilityManager(self)
            self.array.reliability = self.reliability
        self.gc = GarbageCollector(self)
        self.wear_leveler = WearLeveler(self)
        #: Overload governor (admission control, degraded mode, command
        #: timeouts); None (the default) keeps the IO path untouched.
        self.overload: Optional[OverloadGovernor] = None
        if config.overload.enabled:
            self.overload = OverloadGovernor(self)
        self.allocator.on_free_block_taken = self.gc.maybe_trigger
        self.write_buffer: Optional[WriteBuffer] = None
        if config.controller.write_buffer_pages > 0:
            self.write_buffer = WriteBuffer(self, config.controller.write_buffer_pages)
        #: Crash-consistency plumbing, armed only when the fault plan
        #: schedules a power loss.  The journal lives in battery RAM; the
        #: checkpoint manager restarts its periodic timer on every mount
        #: (its pending tick dies with the device-event purge).
        self.crash_armed = crash_armed
        self.journal: Optional[MappingJournal] = None
        self.checkpointer: Optional[CheckpointManager] = None
        if crash_armed and config.crash.strategy is RecoveryStrategy.CHECKPOINT_JOURNAL:
            self.journal = MappingJournal(self)
            self.checkpointer = CheckpointManager(self)
            self.checkpointer.start()
        #: Completion interrupt handler, installed by the OS layer.
        self.on_io_complete: Callable[[IoRequest], None] = lambda io: None
        self._open_interface = config.host.open_interface

    def _draw_bad_blocks(self, config: SimulationConfig):
        """Factory bad-block map: each block bad with the configured
        probability, drawn from the experiment seed."""
        rate = config.geometry.bad_block_rate
        if rate <= 0.0:
            return None
        from repro.hardware.addresses import iter_luns

        stream = self.rng.stream("bad-blocks")
        bad: dict[tuple[int, int], set[int]] = {}
        for lun_key in iter_luns(config.geometry):
            bad[lun_key] = {
                block_id
                for block_id in range(config.geometry.blocks_per_lun)
                if stream.random() < rate
            }
        return bad

    # ------------------------------------------------------------------
    # Host link (device side)
    # ------------------------------------------------------------------
    def submit_io(self, io: IoRequest) -> None:
        """Accept a logical IO dispatched by the OS."""
        hints = self.hints_of(io)
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "controller", "accept", f"{io.io_type} lpn={io.lpn} #{io.id}"
            )
        if self.reliability is not None and self.reliability.reject_if_read_only(io):
            return
        if self.overload is not None and not self.overload.admit(io):
            return
        if io.io_type is IoType.WRITE:
            self._observe_write(io.lpn, hints)
            if self.write_buffer is not None:
                self.write_buffer.write(io, hints)
            else:
                self.ftl.write(io, io.lpn, hints)
            return
        if io.io_type is IoType.READ:
            if self.write_buffer is not None and self.write_buffer.serve_read(io):
                return
            self.ftl.read(io)
            return
        if io.io_type is IoType.TRIM:
            if self.write_buffer is not None and self.write_buffer.trim(io):
                return
            self.ftl.trim(io)
            return
        raise ValueError(f"unknown IO type {io.io_type!r}")

    def hints_of(self, io: IoRequest) -> WriteHints:
        """The hints the device may act on: everything with the open
        interface, nothing through the plain block interface."""
        return io.hints if self._open_interface else {}

    def _observe_write(self, lpn: int, hints: WriteHints) -> None:
        self.temperature.record_write(lpn)
        if "temperature" in hints and (
            self.config.controller.temperature.detector is TemperatureDetector.HINT
        ):
            self.temperature.hint(lpn, hints["temperature"] == "hot")

    # ------------------------------------------------------------------
    # Flash command funnel
    # ------------------------------------------------------------------
    def enqueue_command(self, cmd: FlashCommand) -> None:
        """Queue a flash command (used by FTL, GC, WL and tests).  Its
        ``on_complete`` is delivered by :meth:`_command_complete`."""
        kind = cmd.kind
        address = cmd.address
        if kind is CommandKind.READ or kind is CommandKind.COPYBACK:
            self.array.lun_grid[address.channel][address.lun].hold_read(address.block)
        self.scheduler.enqueue(cmd)
        if self.overload is not None:
            self.overload.arm_timeout(cmd)
        # A PROGRAM's binding at start keeps its LUN: one key serves both.
        lun_key = (address.channel, address.lun)
        if cmd.source is CommandSource.APPLICATION:
            self.gc.note_app_activity(lun_key)
        if kind is CommandKind.PROGRAM and cmd.source is not CommandSource.GC:
            # The program may be unbindable on an all-live LUN; give the
            # collector a chance to start a rebalancing eviction.
            self.gc.maybe_trigger(lun_key)

    def _command_complete(self, cmd: FlashCommand) -> None:
        """The array's completion hook: every command the array finishes
        (directly or after its ECC decode) arrives here exactly once."""
        original = cmd.on_complete
        if cmd.kind is CommandKind.ERASE:
            # Purge stale open-block registrations BEFORE the module
            # handler runs: the handler may pump the scheduler, and a new
            # write could legitimately re-open this very block.
            self.allocator.note_erased(cmd.lun_key, cmd.address.block)
        # The reliability manager may consume the completion entirely: a
        # read that must retry or rebuild, a failed program that will be
        # retransmitted.  The original callback then fires only when the
        # recovery path delivers a good copy.  Each physical attempt is
        # still recorded in the flash-command statistics below.
        intercepted = self.reliability is not None and self.reliability.intercept_completion(cmd)
        if not intercepted and original is not None:
            original(cmd)
        # ``_name_`` is the enum's documented sunder attribute; ``.name``
        # goes through a Python-level descriptor.
        self.stats.record_flash_command(cmd.source._name_, cmd.kind._name_, self.sim.now)
        if cmd.kind is CommandKind.ERASE:
            self.wear_leveler.on_erase()
            self.gc.maybe_trigger(cmd.lun_key)
        if self.overload is not None:
            self.overload.note_progress()

    # ------------------------------------------------------------------
    # IO completion paths (called by FTL / write buffer)
    # ------------------------------------------------------------------
    def complete_io(self, io: IoRequest) -> None:
        io.complete_time = self.sim.now
        if self.tracer.enabled:
            self.tracer.record(
                self.sim.now, "controller", "complete", f"{io.io_type} lpn={io.lpn} #{io.id}"
            )
        self.on_io_complete(io)

    def complete_quick(self, io: IoRequest) -> None:
        """Complete after only the controller/command overhead (buffer
        hits, trims, metadata-only operations)."""
        self.sim.post(self.config.timings.t_cmd_ns, self.complete_io, io)

    # ------------------------------------------------------------------
    # Cross-module probes
    # ------------------------------------------------------------------
    def _queue_depth(self, lun_key: tuple[int, int]) -> int:
        return self.scheduler.queue_depth(lun_key)

    # ------------------------------------------------------------------
    # Invariant checking (used heavily by the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify DESIGN.md invariants 3 and 6 at a quiescent point.

        Only meaningful when no command is in flight (e.g. after the
        simulation drained); raises ``AssertionError`` with a diagnostic
        message otherwise.
        """
        live = self.array.total_live_pages()
        expected = self.ftl.expected_live_pages()
        if live != expected:
            raise AssertionError(
                f"live-page mismatch: array has {live}, FTL implies {expected}"
            )
        # Vectorized whole-device audits; on failure, locate the first
        # offending block (lowest global block id) for the diagnostic.
        state = self.array.state
        geometry = self.config.geometry

        def _locate(mask) -> tuple[tuple[int, int], int, int]:
            global_id = int(np.argmax(mask))
            lun_index, block_id = divmod(global_id, geometry.blocks_per_lun)
            lun_key = (
                lun_index // geometry.luns_per_channel,
                lun_index % geometry.luns_per_channel,
            )
            return lun_key, block_id, global_id

        inflight = state.inflight_reads != 0
        if inflight.any():
            lun_key, block_id, _ = _locate(inflight)
            raise AssertionError(
                f"in-flight reads remain on (c{lun_key[0]},l{lun_key[1]},"
                f"b{block_id}) at quiescence"
            )
        free_not_empty = (state.block_free != 0) & (state.write_pointer != 0)
        if free_not_empty.any():
            lun_key, block_id, _ = _locate(free_not_empty)
            raise AssertionError(
                f"free set contains non-empty block b{block_id} on {lun_key}"
            )
        bad_with_live = (state.bad != 0) & (state.live_count != 0)
        if bad_with_live.any():
            lun_key, block_id, global_id = _locate(bad_with_live)
            raise AssertionError(
                f"retired block b{block_id} on {lun_key} still holds "
                f"{int(state.live_count[global_id])} live pages"
            )
        untracked = state.fully_dead_mask()
        untracked[[block for blocks in state.fully_dead for block in sorted(blocks)]] = False
        if untracked.any():
            lun_key, block_id, _ = _locate(untracked)
            raise AssertionError(
                f"fully-dead block b{block_id} on {lun_key} is missing from "
                f"its LUN's fully_dead set"
            )
        condemned = sum(job.retire for job in self.gc.evacuating.values())
        if condemned:
            raise AssertionError(
                f"{condemned} condemned blocks not yet retired at quiescence"
            )
        if self.reliability is not None:
            self.reliability.check_invariants()
