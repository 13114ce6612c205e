"""The simulation facade: wire the four layers together and run.

:class:`Simulation` is the main entry point of the library::

    from repro import Simulation, small_config
    from repro.workloads import RandomWriterThread

    sim = Simulation(small_config())
    sim.add_thread(RandomWriterThread("writer", count=2000))
    result = sim.run()
    print(result.stats.report())

The simulation ends when the event queue drains (all threads finished
and every internal operation completed) or when ``max_time_ns`` is hit.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.controller.controller import RUN_COUNTERS, SsdController
from repro.core import units
from repro.core.config import SimulationConfig
from repro.core.engine import Simulator
from repro.core.power import CrashStats, PowerLossEvent
from repro.core.rng import RandomSource
from repro.core.statistics import StatisticsGatherer
from repro.core.tracing import TraceRecorder
from repro.host.operating_system import OperatingSystem
from repro.reliability.crash import PowerCycleCoordinator


class SimulationResult:
    """Everything measured in one run."""

    def __init__(self, simulation: "Simulation") -> None:
        self.config = simulation.config
        self.stats = simulation.stats
        self.tracer = simulation.tracer
        self.elapsed_ns = simulation.sim.now
        self.processed_events = simulation.sim.processed_events
        controller = simulation.controller
        self.thread_stats: dict[str, StatisticsGatherer] = {
            name: record.stats
            for name, record in simulation.os._records.items()
            if record.stats is not None
        }
        self.gc_relocated_pages = controller.gc.relocated_pages
        self.gc_copybacks = controller.gc.copyback_relocations
        self.wl_migrations = controller.wear_leveler.migrations_started
        self.wl_migrated_pages = controller.wear_leveler.migrated_pages
        self.wear = controller.wear_leveler.wear_statistics()
        reliability = controller.reliability
        #: Virtual time at which the device degraded to read-only mode;
        #: None when it never did (or reliability is disabled).
        self.read_only_entry_ns = reliability.read_only_entry_ns if reliability else None
        self.channel_utilisation = controller.array.channel_utilisation()
        #: The queue high-watermarks are pure observers tracked
        #: unconditionally, so unbounded legacy configurations expose
        #: their runaway growth too (the E20 comparison depends on this).
        self.os_queue_high_watermark = simulation.os.os_queue_high_watermark
        self.device_queue_high_watermark = (
            controller.scheduler.max_queue_high_watermark()
        )
        overload = controller.overload
        self.time_degraded_ns = (
            overload.time_degraded_total(simulation.sim.now) if overload else 0
        )
        #: Run counters by summary key: the keyed ``RUN_COUNTERS`` rows
        #: (0 for a disabled module) plus the counters of the array and
        #: the OS, which survive a power cycle.
        self.counters: dict[str, float] = {}
        for module_name, attr, key in RUN_COUNTERS:
            if key is not None:
                module = getattr(controller, module_name)
                self.counters[key] = 0.0 if module is None else float(getattr(module, attr))
        host = simulation.os
        self.counters.update(
            retired_blocks=float(controller.array.retired_blocks),
            os_queue_high_watermark=float(self.os_queue_high_watermark),
            device_queue_high_watermark=float(self.device_queue_high_watermark),
            host_rejections=float(host.host_rejections),
            io_retries=float(host.retries_scheduled),
            io_retries_exhausted=float(host.retries_exhausted),
            busy_ios=float(host.busy_completions),
            timeout_ios=float(host.timeout_completions),
        )
        #: Bytes held by the array-backed device state: FTL mapping and
        #: version tables plus the flash-array bitmaps and per-block
        #: metadata (scale regressions show up in every run summary).
        self.device_memory_bytes = (
            controller.array.state.memory_bytes() + controller.ftl.table_memory_bytes()
        )
        #: Crash/recovery accounting; an all-zero CrashStats when no
        #: power loss was scheduled (pay-for-what-you-use).
        coordinator = simulation._coordinator
        crash = coordinator.stats if coordinator is not None else CrashStats()
        if controller.checkpointer is not None:
            crash.checkpoints_taken = controller.checkpointer.checkpoints_taken
            crash.checkpoint_pages_written = (
                controller.checkpointer.checkpoint_pages_written
            )
        self.crash_stats = crash
        self.mount_reports = crash.reports
        self.flash_commands = dict(controller.stats.flash_commands)
        #: True when the run ended with IOs still outstanding: either the
        #: time limit cut the workload short, or the system stalled.
        self.incomplete = simulation.os.outstanding > 0
        self.outstanding_at_end = simulation.os.outstanding
        #: Filled only when ``host.retain_completed_ios`` is set.
        self.completed_ios = simulation.os.completed_ios
        #: Cached :meth:`summary`; a result is immutable once built.
        self._summary_cache: Optional[dict[str, float]] = None

    def summary(self) -> dict[str, float]:
        """Flat metrics dictionary: statistics plus internal activity."""
        if self._summary_cache is not None:
            return dict(self._summary_cache)
        summary = self.stats.summary()
        summary.update(self.counters)
        crash = self.crash_stats
        summary.update(
            {
                "elapsed_ms": units.to_milliseconds(self.elapsed_ns),
                "wear_spread": self.wear["spread"],
                "mean_channel_utilisation": (
                    sum(self.channel_utilisation) / len(self.channel_utilisation)
                ),
                "device_memory_bytes": float(self.device_memory_bytes),
                # -1 when the device never went read-only.
                "read_only_entry_ms": (
                    units.to_milliseconds(self.read_only_entry_ns)
                    if self.read_only_entry_ns is not None
                    else -1.0
                ),
                # Crash/recovery subsystem; all zero when no power loss
                # was scheduled.
                "power_losses": float(crash.power_losses),
                "mount_time_ms": units.to_milliseconds(crash.mount_time_ns),
                "recovery_scanned_pages": float(crash.scanned_pages),
                "recovery_replayed_records": float(crash.replayed_records),
                "lost_writes": float(crash.lost_writes),
                "torn_pages": float(crash.torn_pages),
                "checkpoints_taken": float(crash.checkpoints_taken),
                "checkpoint_pages_written": float(crash.checkpoint_pages_written),
                "time_degraded_ms": units.to_milliseconds(self.time_degraded_ns),
            }
        )
        self._summary_cache = summary
        return dict(summary)

    def report(self) -> str:
        lines = [self.stats.report()]
        lines.append(
            f"virtual time  : {units.format_time(self.elapsed_ns)}"
            f" ({self.processed_events} events)"
        )
        counts = {key: int(value) for key, value in self.counters.items()}
        lines.append(
            f"GC            : {counts['gc_collected_blocks']} blocks, "
            f"{self.gc_relocated_pages} pages relocated "
            f"({self.gc_copybacks} by copyback)"
        )
        lines.append(
            f"WL            : {self.wl_migrations} migrations, "
            f"wear spread {self.wear['spread']:.0f} "
            f"(sd {self.wear['stddev']:.2f})"
        )
        lines.append(
            "channel util  : "
            + " ".join(f"{u:.0%}" for u in self.channel_utilisation)
        )
        lines.append(
            f"device memory : {self.device_memory_bytes / (1 << 20):.1f} MiB "
            "(mapping tables + bitmaps + block metadata)"
        )
        if any(
            counts[key]
            for key in (
                "corrected_reads",
                "read_retries",
                "parity_rebuilds",
                "uncorrectable_reads",
                "runtime_retired_blocks",
            )
        ):
            lines.append(
                f"reliability   : {counts['corrected_reads']} corrected, "
                f"{counts['read_retries']} retries, "
                f"{counts['parity_rebuilds']} rebuilds, "
                f"{counts['uncorrectable_reads']} lost, "
                f"{counts['runtime_retired_blocks']} blocks retired"
            )
        rejected = counts["host_rejections"] + counts["device_busy_rejections"]
        if rejected or counts["shed_ios"] or counts["command_timeouts"] or counts["io_retries"]:
            lines.append(
                f"overload      : {rejected} rejected, {counts['shed_ios']} shed, "
                f"{counts['command_timeouts']} timed out, "
                f"{counts['io_retries']} retries "
                f"({counts['io_retries_exhausted']} exhausted), "
                f"{units.format_time(self.time_degraded_ns)} degraded"
            )
        if self.crash_stats.power_losses:
            lines.append(
                f"crashes       : {self.crash_stats.power_losses} power losses, "
                f"{units.format_time(self.crash_stats.mount_time_ns)} mounting, "
                f"{self.crash_stats.scanned_pages} pages scanned, "
                f"{self.crash_stats.lost_writes} writes lost"
            )
        return "\n".join(lines)


class Simulation:
    """One configured system: engine + array + controller + OS + threads."""

    def __init__(self, config: SimulationConfig) -> None:
        config.validate()
        self.config = config
        self.sim = Simulator(sanitize=config.sanitize)
        self.rng = RandomSource(config.seed, sanitize=config.sanitize)
        self.tracer = TraceRecorder(enabled=config.trace_enabled)
        self.stats = StatisticsGatherer("global")
        #: Power losses scheduled by the fault plan (crash consistency is
        #: a baseline-device property: it does NOT need
        #: ``reliability.enabled``).  With none scheduled, nothing below
        #: is armed and runs are bit-identical to a crash-free simulator.
        plan = config.reliability.fault_plan
        self._power_losses: list[PowerLossEvent] = (
            sorted(plan.power_losses, key=lambda event: event.at_ns)
            if plan is not None
            else []
        )
        crash_armed = bool(self._power_losses)
        self.controller = SsdController(
            self.sim,
            config,
            rng=self.rng,
            tracer=self.tracer,
            stats=self.stats,
            crash_armed=crash_armed,
        )
        self.os = OperatingSystem(
            self.sim, config, self.controller, self.stats, self.tracer, self.rng
        )
        self._coordinator: Optional[PowerCycleCoordinator] = None
        if crash_armed:
            self._coordinator = PowerCycleCoordinator(self)
            self.os.track_inflight = True
            self.os.auditor = self._coordinator.auditor
        self._ran = False

    def add_thread(
        self, thread: object, depends_on: Iterable[str] = (), collect_stats: bool = True
    ) -> None:
        """Register a workload thread (see ``OperatingSystem.add_thread``)."""
        self.os.add_thread(thread, depends_on=depends_on, collect_stats=collect_stats)

    def run(self, max_time_ns: Optional[int] = None) -> SimulationResult:
        """Run to completion (or to the time limit) and collect results."""
        if self._ran:
            raise RuntimeError("a Simulation instance runs once; build a new one")
        self._ran = True
        limit = max_time_ns if max_time_ns is not None else self.config.max_time_ns
        self.os.start()
        if self._coordinator is not None:
            # Segmented execution: run to each scheduled power loss, tear
            # the device down and remount it, then continue.  A loss that
            # lands while the device is still off/mounting from the
            # previous one fires immediately at the current instant.
            for loss in self._power_losses:
                if limit is not None and loss.at_ns >= limit:
                    break
                if loss.at_ns > self.sim.now:
                    self.sim.run(until=loss.at_ns)
                self._coordinator.power_cycle(loss)
        self.sim.run(until=limit)
        return SimulationResult(self)
