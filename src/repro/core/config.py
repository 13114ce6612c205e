"""Configuration surface of the simulator.

Paper Section 2.2: "EagleTree allows users to set up every hardware
parameter of the simulated SSD [...] All these parameters are variables
that can be set, viewed and updated with ease.  Predefined configurations
are provided based on existing SSDs and flash chip datasheets."

Everything configurable in this reproduction lives here, as plain
dataclasses that experiments can copy and mutate (see
:mod:`repro.core.experiments`).  Policies are expressed as enums so that
configurations are printable, comparable and hashable for sweep keys.
"""

from __future__ import annotations

import copy
import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.core import units


class ChipKind(enum.Enum):
    """Flash cell technology; determines the default timing preset."""

    SLC = "slc"
    MLC = "mlc"


class FtlKind(enum.Enum):
    """Mapping scheme run by the controller (paper Section 2.2 Mapping).

    The paper evaluates the two page-based schemes; HYBRID extends the
    design space with the classic block-mapped + log-block scheme the
    page-based FTL literature compares against.
    """

    #: Full page-level map kept entirely in controller RAM.
    PAGE = "page"
    #: DFTL: demand-paged mapping with a cached mapping table (CMT) in RAM
    #: and translation pages on flash (Gupta et al., ASPLOS 2009).
    DFTL = "dftl"
    #: FAST-style hybrid: block-level map plus page-mapped log blocks,
    #: reclaimed by full/switch merges.
    HYBRID = "hybrid"


class GcVictimPolicy(enum.Enum):
    """How the garbage collector picks victim blocks."""

    #: Fewest valid pages first (classic greedy).
    GREEDY = "greedy"
    #: Cost-benefit: weigh reclaimable space against block age.
    COST_BENEFIT = "cost_benefit"
    #: Uniform random among full blocks (baseline for comparisons).
    RANDOM = "random"
    #: Oldest written block first (FIFO / LRU-block).
    OLDEST = "oldest"


class SsdSchedulerPolicy(enum.Enum):
    """SSD-internal IO scheduling policy (paper Section 2.2 Scheduling)."""

    FIFO = "fifo"
    #: Static priorities over (source, type) with ageing.
    PRIORITY = "priority"
    #: Earliest-deadline-first with per-type deadlines.
    DEADLINE = "deadline"
    #: Round-robin fairness across sources.
    FAIR = "fair"


class OsSchedulerPolicy(enum.Enum):
    """OS IO scheduling strategy (paper: "e.g., FIFO, CFQ, priorities")."""

    FIFO = "fifo"
    PRIORITY = "priority"
    #: CFQ-like fair queueing: round-robin across threads.
    FAIR = "fair"
    DEADLINE = "deadline"


class AllocationPolicy(enum.Enum):
    """Which LUN an incoming write is bound to (the "where" decision)."""

    #: Rotate across LUNs globally.
    ROUND_ROBIN = "round_robin"
    #: LUN with the fewest queued flash commands.
    LEAST_QUEUED = "least_queued"
    #: Static striping by logical page number.
    STRIPE = "stripe"
    #: Like ROUND_ROBIN but hot and cold pages go to separate open blocks
    #: (requires a temperature source: detector or hints).
    TEMPERATURE = "temperature"
    #: Pages of the same locality group go to the same open block
    #: (requires update-locality hints through the open interface).
    LOCALITY = "locality"


class TemperatureDetector(enum.Enum):
    """Where page temperature information comes from (Section 2.2 WL)."""

    NONE = "none"
    #: Multiple bloom filters (Park & Du, MSST 2011).
    BLOOM = "bloom"
    #: Pages migrated by static wear leveling are cold, the rest hot.
    STATIC_WL = "static_wl"
    #: Temperatures communicated by the OS through the open interface.
    HINT = "hint"


class RecoveryStrategy(enum.Enum):
    """How the mapping table is reconstructed after a power loss
    (:mod:`repro.reliability.recovery`)."""

    #: Read every programmed page's out-of-band area and rebuild the map
    #: from the (lpn, version) tokens.  No runtime cost, long mount.
    OOB_SCAN = "oob_scan"
    #: Periodic mapping-table checkpoint plus a battery-backed journal of
    #: mapping commits; mount replays the journal tail.  Runtime write
    #: amplification for a short mount.
    CHECKPOINT_JOURNAL = "checkpoint_journal"


@dataclass
class ChipTimings:
    """Basic flash chip timings (paper: "to send a command, transfer data
    on a channel, read, write or erase").

    All times in integer nanoseconds; the channel is modelled by a
    per-byte transfer cost so page size changes propagate automatically.
    """

    #: Command-and-address handshake occupying the channel.
    t_cmd_ns: int = units.microseconds(1)
    #: Array read (page -> chip register).
    t_read_ns: int = units.microseconds(25)
    #: Array program (chip register -> page).
    t_prog_ns: int = units.microseconds(200)
    #: Block erase.
    t_erase_ns: int = units.milliseconds(1.5)
    #: Channel transfer cost per byte (e.g. 10ns/B == 100 MB/s bus).
    bus_ns_per_byte: int = 10
    #: Cell technology, for documentation and preset selection.
    kind: ChipKind = ChipKind.SLC
    #: Chip implements the copyback (internal data move) command.
    supports_copyback: bool = True
    #: Chip has a cache register enabling pipelining: a read's data-out
    #: may overlap the next array operation on the same LUN.
    supports_pipelining: bool = False
    #: Program/erase cycles a block endures before being retired as bad.
    #: ``None`` models an unlimited-endurance device (the default, so
    #: long experiments do not silently lose capacity).  Datasheet-like
    #: values: ~100k for SLC, ~3-10k for MLC.
    endurance_cycles: Optional[int] = None

    @classmethod
    def slc(cls) -> "ChipTimings":
        """SLC preset, modelled on large-block SLC datasheets
        (e.g. Samsung K9XXG08UXM family)."""
        return cls(
            t_cmd_ns=units.microseconds(1),
            t_read_ns=units.microseconds(25),
            t_prog_ns=units.microseconds(200),
            t_erase_ns=units.milliseconds(1.5),
            bus_ns_per_byte=10,
            kind=ChipKind.SLC,
            supports_copyback=True,
            supports_pipelining=True,
        )

    @classmethod
    def mlc(cls) -> "ChipTimings":
        """MLC preset: slower reads, much slower programs and erases."""
        return cls(
            t_cmd_ns=units.microseconds(1),
            t_read_ns=units.microseconds(50),
            t_prog_ns=units.microseconds(800),
            t_erase_ns=units.milliseconds(3),
            bus_ns_per_byte=10,
            kind=ChipKind.MLC,
        )

    def transfer_ns(self, num_bytes: int) -> int:
        """Channel occupancy to move ``num_bytes`` of data."""
        return num_bytes * self.bus_ns_per_byte

    def validate(self) -> None:
        for name in ("t_cmd_ns", "t_read_ns", "t_prog_ns", "t_erase_ns", "bus_ns_per_byte"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ChipTimings.{name} must be positive")


@dataclass
class SsdGeometry:
    """Physical shape of the SSD: channels x LUNs x blocks x pages.

    Following the paper (footnote 1), the LUN -- the ONFI minimum
    granularity of parallelism -- abstracts away packages, chips and dies.
    """

    channels: int = 4
    luns_per_channel: int = 2
    blocks_per_lun: int = 64
    pages_per_block: int = 64
    page_size_bytes: int = 4096
    #: Fraction of blocks that are factory-bad (masked from use, never
    #: allocated; paper: WL "mask[s] bad blocks").  Chosen per LUN from
    #: the experiment seed, so runs stay reproducible.
    bad_block_rate: float = 0.0

    @property
    def total_luns(self) -> int:
        return self.channels * self.luns_per_channel

    @property
    def pages_per_lun(self) -> int:
        return self.blocks_per_lun * self.pages_per_block

    @property
    def total_blocks(self) -> int:
        return self.total_luns * self.blocks_per_lun

    @property
    def total_pages(self) -> int:
        return self.total_luns * self.pages_per_lun

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size_bytes

    def validate(self) -> None:
        for name in (
            "channels",
            "luns_per_channel",
            "blocks_per_lun",
            "pages_per_block",
            "page_size_bytes",
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or value <= 0:
                raise ValueError(f"SsdGeometry.{name} must be a positive integer")
        if self.blocks_per_lun < 4:
            raise ValueError("blocks_per_lun must be at least 4 (GC headroom)")
        if not 0.0 <= self.bad_block_rate < 0.5:
            raise ValueError("bad_block_rate must be in [0, 0.5)")


@dataclass
class SchedulerConfig:
    """Knobs of the SSD-internal scheduler framework.

    The framework (paper Section 2.2) supports priorities by source and
    type, deadlines with configurable overdue handling, and ageing to
    avoid starvation.  Individual policies consume the subset they need.
    """

    policy: SsdSchedulerPolicy = SsdSchedulerPolicy.FIFO
    #: Lower number = higher priority.  Keys are CommandSource names.
    source_priorities: dict[str, int] = field(
        default_factory=lambda: {
            "APPLICATION": 0,
            "MAPPING": 0,
            "GC": 1,
            "WEAR_LEVELING": 2,
        }
    )
    #: Lower number = higher priority.  Keys are flash command kind names.
    type_priorities: dict[str, int] = field(
        default_factory=lambda: {"READ": 0, "PROGRAM": 0, "COPYBACK": 1, "ERASE": 2}
    )
    #: Deadline per command kind for the DEADLINE policy.
    read_deadline_ns: int = units.microseconds(500)
    write_deadline_ns: int = units.milliseconds(5)
    erase_deadline_ns: int = units.milliseconds(50)
    #: PRIORITY policy: a command waiting longer than this beats priority.
    starvation_age_ns: int = units.milliseconds(20)
    #: Honour open-interface priority hints carried on application IOs.
    use_priority_hints: bool = False


@dataclass
class WearLevelingConfig:
    """Static and dynamic wear-leveling knobs (paper Section 2.2 WL)."""

    enabled: bool = True
    #: Run the static-WL scan every N block erases.
    check_interval_erases: int = 32
    #: A block is "young and cold" when its erase count is below
    #: (average - threshold) and it has not been erased for longer than
    #: ``idle_factor`` times the average erase interval.
    erase_count_threshold: int = 8
    idle_factor: float = 4.0
    #: Dynamic WL: hand young free blocks to hot streams and old free
    #: blocks to cold streams when the allocator asks for an open block.
    dynamic: bool = True


@dataclass
class TemperatureConfig:
    """Hot/cold page classification (paper Section 2.2 WL, option 2)."""

    detector: TemperatureDetector = TemperatureDetector.NONE
    #: Number of bloom filters in the Park & Du multi-filter scheme.
    num_filters: int = 4
    #: Bits per bloom filter.
    filter_bits: int = 4096
    #: Hash functions per filter.
    num_hashes: int = 2
    #: Rotate (decay) the oldest filter every N recorded writes.
    decay_writes: int = 4096
    #: A page whose weighted appearance count reaches this is "hot".
    hot_threshold: float = 1.5


@dataclass
class DftlConfig:
    """DFTL-specific parameters (only used when ``ftl == DFTL``)."""

    #: Cached-mapping-table capacity in entries.  ``None`` derives the
    #: capacity from the controller RAM budget.
    cmt_entries: Optional[int] = None
    #: Bytes per mapping entry used for RAM accounting.
    entry_bytes: int = 8
    #: Write back a batch of dirty entries belonging to the same
    #: translation page on eviction ("batch eviction" of the DFTL paper).
    batch_eviction: bool = True


@dataclass
class HybridConfig:
    """Hybrid-FTL parameters (only used when ``ftl == HYBRID``)."""

    #: Number of page-mapped log blocks (the update area).
    log_blocks: int = 8
    #: Recognise single-lbn, in-order log blocks and promote them to data
    #: blocks without copying (the classic switch merge).
    switch_merge: bool = True


@dataclass
class ControllerConfig:
    """Everything the SSD controller layer does (paper Section 2.2)."""

    ftl: FtlKind = FtlKind.PAGE
    #: Fraction of physical pages hidden from the logical address space.
    overprovisioning: float = 0.12
    #: GC Greediness (paper's own term): GC keeps at least this many
    #: *usable* free blocks on each LUN at all times, on top of the one
    #: block the allocator permanently reserves for GC relocations.
    gc_greediness: int = 2
    gc_victim_policy: GcVictimPolicy = GcVictimPolicy.GREEDY
    #: Relocate GC'd pages within the victim's LUN (preserves per-LUN free
    #: space and enables copyback) rather than anywhere.
    gc_same_lun: bool = True
    #: Proactive (idle-time) garbage collection: when a LUN has been idle
    #: for ``gc_idle_threshold_ns`` and holds reclaimable space, collect
    #: ahead of demand up to ``gc_idle_target`` free blocks per LUN --
    #: the demo's "scheduling internal operations as non-obtrusively as
    #: possible".  0 disables the feature.
    gc_idle_target: int = 0
    gc_idle_threshold_ns: int = units.milliseconds(1)
    scheduler: SchedulerConfig = field(default_factory=SchedulerConfig)
    allocation: AllocationPolicy = AllocationPolicy.ROUND_ROBIN
    #: Advanced commands (paper Section 2.2 Hardware).
    enable_copyback: bool = True
    enable_interleaving: bool = True
    #: Use the chips' cache registers (if present) to overlap a read's
    #: data-out with the next array operation on the same LUN.
    enable_pipelining: bool = False
    wear_leveling: WearLevelingConfig = field(default_factory=WearLevelingConfig)
    temperature: TemperatureConfig = field(default_factory=TemperatureConfig)
    dftl: DftlConfig = field(default_factory=DftlConfig)
    hybrid: HybridConfig = field(default_factory=HybridConfig)
    #: Pages of battery-backed RAM used by the write-buffer module
    #: (0 disables the module).
    write_buffer_pages: int = 0
    #: Write-buffer durability (paper E14's battery-backed mode).  True:
    #: the buffer lives in battery-backed RAM, writes are acknowledged at
    #: admission and buffered data survives power loss.  False: the
    #: buffer lives in plain RAM, acknowledgement is deferred until the
    #: buffered page is durably flushed, and power loss discards it.
    write_buffer_battery_backed: bool = True
    #: Controller RAM budget (mapping structures), bytes.
    ram_bytes: int = 32 * units.MIB
    #: Battery-backed RAM budget (write buffer), bytes.
    battery_ram_bytes: int = 1 * units.MIB

    def validate(self, geometry: SsdGeometry) -> None:
        if not 0.0 < self.overprovisioning < 0.9:
            raise ValueError("overprovisioning must be in (0, 0.9)")
        if self.gc_greediness < 1:
            raise ValueError("gc_greediness must be >= 1")
        if self.gc_greediness >= geometry.blocks_per_lun // 2:
            raise ValueError(
                "gc_greediness must leave at least half of each LUN usable"
            )
        if self.gc_idle_target < 0:
            raise ValueError("gc_idle_target must be >= 0")
        if self.gc_idle_target >= geometry.blocks_per_lun // 2:
            raise ValueError(
                "gc_idle_target must leave at least half of each LUN usable"
            )
        if self.gc_idle_target > 0 and self.gc_idle_threshold_ns <= 0:
            raise ValueError("gc_idle_threshold_ns must be positive")
        if self.write_buffer_pages < 0:
            raise ValueError("write_buffer_pages must be >= 0")
        buffer_bytes = self.write_buffer_pages * geometry.page_size_bytes
        if self.write_buffer_battery_backed and buffer_bytes > self.battery_ram_bytes:
            raise ValueError(
                "write buffer does not fit in battery-backed RAM "
                f"({buffer_bytes}B > {self.battery_ram_bytes}B)"
            )
        if not self.write_buffer_battery_backed and buffer_bytes > self.ram_bytes:
            raise ValueError(
                "volatile write buffer does not fit in controller RAM "
                f"({buffer_bytes}B > {self.ram_bytes}B)"
            )


@dataclass
class ReliabilityConfig:
    """Error injection, ECC, recovery and graceful degradation
    (:mod:`repro.reliability`).

    All rates default to zero and ``enabled`` defaults to ``False``, so a
    default configuration behaves bit-identically to a simulator without
    the reliability subsystem: no RNG stream is consumed and no event
    timing changes.

    The raw bit-error rate (RBER) of a read grows with the block's
    program/erase cycle count and with the retention age of its data:

    ``rber = base_rber * (1 + wear_coefficient * (pe/wear_reference)^wear_exponent)
                       * (1 + retention_coefficient * age/retention_reference)``

    ECC corrects up to ``ecc_correctable_bits`` bit errors per page; a
    read that exceeds the budget walks a retry ladder (each retry
    re-issues the flash read through the scheduler queues with the RBER
    scaled by ``retry_rber_scale``, modelling read-retry voltage shifts).
    Reads that remain uncorrectable are reconstructed from channel-stripe
    parity when ``parity`` is on.  Program/erase failures retire the
    block at runtime; once more blocks retired than the spare pool holds,
    the device degrades to read-only mode.
    """

    #: Master switch; off keeps every code path and RNG stream untouched.
    enabled: bool = False
    #: Raw bit-error probability per bit of a fresh, young page.
    base_rber: float = 0.0
    #: Wear sensitivity of the RBER (0 disables wear growth).
    wear_coefficient: float = 0.0
    #: P/E cycle count at which the wear term reaches ``wear_coefficient``.
    wear_reference_cycles: int = 3000
    #: Shape of the wear growth (1.0 = linear, 2.0 = quadratic).
    wear_exponent: float = 1.0
    #: Retention sensitivity of the RBER (0 disables retention growth).
    retention_coefficient: float = 0.0
    #: Data age at which the retention term reaches ``retention_coefficient``.
    retention_reference_ns: int = units.SECOND
    #: Bit errors per page the ECC can correct.
    ecc_correctable_bits: int = 8
    #: ECC decode latency added to every read, per correctable bit --
    #: the stronger the code, the longer the decode.
    ecc_decode_ns_per_bit: int = 50
    #: Read-retry ladder depth (0 disables retries).
    max_read_retries: int = 3
    #: Effective-RBER multiplier applied per retry step.
    retry_rber_scale: float = 0.5
    #: Probability that a completed program reports a program failure.
    program_fail_probability: float = 0.0
    #: Probability that a completed erase reports an erase failure.
    erase_fail_probability: float = 0.0
    #: Channel-stripe parity (RAISE-style): uncorrectable pages are
    #: rebuilt by reading the stripe's peers on the other channels.
    parity: bool = False
    #: Blocks per LUN set aside to absorb runtime retirements; once more
    #: blocks have retired than the pool holds, the device goes read-only.
    spare_blocks_per_lun: int = 0
    #: Deterministic fault-injection plan (see :mod:`repro.reliability.inject`).
    fault_plan: Optional[object] = None

    def validate(self, geometry: SsdGeometry) -> None:
        if not self.enabled:
            return
        for name in ("base_rber", "wear_coefficient", "retention_coefficient"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"ReliabilityConfig.{name} must be >= 0")
        if not 0.0 <= self.base_rber < 0.1:
            raise ValueError("base_rber must be in [0, 0.1)")
        for name in ("wear_reference_cycles", "retention_reference_ns"):
            if getattr(self, name) <= 0:
                raise ValueError(f"ReliabilityConfig.{name} must be positive")
        if self.wear_exponent <= 0.0:
            raise ValueError("wear_exponent must be positive")
        if self.ecc_correctable_bits < 0 or self.ecc_decode_ns_per_bit < 0:
            raise ValueError("ECC parameters must be >= 0")
        if self.max_read_retries < 0:
            raise ValueError("max_read_retries must be >= 0")
        if not 0.0 < self.retry_rber_scale <= 1.0:
            raise ValueError("retry_rber_scale must be in (0, 1]")
        for name in ("program_fail_probability", "erase_fail_probability"):
            if not 0.0 <= getattr(self, name) <= 0.5:
                raise ValueError(
                    f"ReliabilityConfig.{name} must be in [0, 0.5] "
                    "(1.0 would retry forever)"
                )
        if self.parity and geometry.channels < 2:
            raise ValueError("channel-stripe parity needs at least 2 channels")
        if not 0 <= self.spare_blocks_per_lun < geometry.blocks_per_lun // 2:
            raise ValueError(
                "spare_blocks_per_lun must leave at least half of each LUN usable"
            )


@dataclass
class CrashConfig:
    """Crash-consistency parameters (power loss, recovery, mount).

    Only consulted when a :class:`~repro.reliability.inject.FaultPlan`
    schedules at least one power loss; otherwise the machinery is never
    armed and runs are bit-identical to a simulator without it.
    """

    #: Mapping reconstruction strategy used at every mount.
    strategy: RecoveryStrategy = RecoveryStrategy.OOB_SCAN
    #: CHECKPOINT_JOURNAL: virtual time between mapping-table checkpoints.
    checkpoint_interval_ns: int = units.milliseconds(50)

    def validate(self) -> None:
        if self.checkpoint_interval_ns <= 0:
            raise ValueError("CrashConfig.checkpoint_interval_ns must be positive")


@dataclass
class OverloadConfig:
    """Overload robustness: bounded queues, admission control, command
    timeouts, host retries and graceful degradation.

    Everything defaults to off (``enabled=False``) and the layer is a
    pure opt-in: with the master switch off no code path, event or RNG
    stream changes, so default configurations stay bit-identical to a
    simulator without it.  The layer itself consumes no randomness at
    all (backoff is deterministic exponential), so enabling it never
    perturbs the RNG streams of unrelated subsystems either.

    Four cooperating mechanisms (see DESIGN.md section 9 for the state
    machine):

    * **Host admission** -- ``host_queue_bound`` caps the OS pending
      pool (an NVMe-style bounded submission queue).  A full pool
      completes new IOs with :class:`~repro.core.events.IoStatus.BUSY`,
      a status the issuing thread reads back from its completion.
    * **Device admission & degraded mode** -- ``device_queue_bound``
      caps total pending flash commands; past it the controller busies
      new IOs.  Crossing ``degraded_enter_pending`` queued commands
      enters *degraded mode*, which sheds IOs whose priority hint
      exceeds ``shed_priority_threshold`` and enforces a minimum
      virtual-time gap of ``degraded_admission_gap_ns`` between
      admissions until the backlog falls to half the enter watermark.
    * **Command timeouts** -- an *application* command still queued
      (not yet started) ``command_timeout_ns`` after enqueue is aborted
      and its IO completes with ``TIMEOUT``.  Only commands that
      reserved no device state at enqueue are abortable: reads, and
      late-binding programs (page/DFTL); the hybrid FTL's programs
      pre-reserve log slots and are exempt.
    * **Host retries** -- the OS retries ``BUSY``/``TIMEOUT``
      completions up to ``max_retries`` times with deterministic
      exponential backoff (``retry_backoff_ns * 2 ** attempt``), as
      long as the next attempt still fits the per-IO budget
      ``io_deadline_ns`` measured from first issue.  An IO therefore
      succeeds within its budget or fails definitively, with the
      attempt count recorded on ``IoRequest.attempts``.
    """

    #: Master switch; off keeps every code path untouched.
    enabled: bool = False
    #: Max IOs in the OS pending pool; ``None`` leaves the pool unbounded.
    host_queue_bound: Optional[int] = None
    #: Max total pending flash commands before the device busies new IOs;
    #: ``None`` leaves the device queues unbounded.
    device_queue_bound: Optional[int] = None
    #: Queued-command age at which an application command is aborted and
    #: completed with ``TIMEOUT``; ``None`` disables timeouts.
    command_timeout_ns: Optional[int] = None
    #: Host-side retry attempts for BUSY/TIMEOUT completions (0 = none).
    max_retries: int = 0
    #: Backoff before the first retry; doubles after each further
    #: attempt.  Deterministic -- no RNG jitter by design.
    retry_backoff_ns: int = units.microseconds(100)
    #: Per-IO deadline budget measured from first issue; a retry that
    #: cannot complete its backoff within the budget is not attempted.
    #: ``None`` bounds retries by ``max_retries`` alone.
    io_deadline_ns: Optional[int] = None
    #: Pending flash commands at which the controller enters degraded
    #: mode (it exits at half this); ``None`` disables degraded mode.
    degraded_enter_pending: Optional[int] = None
    #: Degraded mode: minimum virtual-time gap between admitted IOs
    #: (rate limiting); 0 disables the throttle.
    degraded_admission_gap_ns: int = 0
    #: Degraded mode: shed IOs whose ``priority`` hint exceeds this
    #: (larger hint = less urgent); ``None`` sheds nothing.
    shed_priority_threshold: Optional[int] = None

    def validate(self) -> None:
        if not self.enabled:
            return
        for name in ("host_queue_bound", "device_queue_bound"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"OverloadConfig.{name} must be >= 1")
        for name in ("command_timeout_ns", "io_deadline_ns"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"OverloadConfig.{name} must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.retry_backoff_ns <= 0:
            raise ValueError("retry_backoff_ns must be positive")
        if self.degraded_enter_pending is not None and self.degraded_enter_pending < 1:
            raise ValueError("degraded_enter_pending must be >= 1")
        if self.degraded_admission_gap_ns < 0:
            raise ValueError("degraded_admission_gap_ns must be >= 0")
        if self.shed_priority_threshold is not None and self.shed_priority_threshold < 0:
            raise ValueError("shed_priority_threshold must be >= 0")


@dataclass
class HostConfig:
    """Operating-system layer configuration (paper Section 2.2 OS)."""

    os_scheduler: OsSchedulerPolicy = OsSchedulerPolicy.FIFO
    #: Maximum IOs outstanding at the SSD at any moment (queue depth).
    max_outstanding: int = 32
    #: Enable the open interface: hint messages attached to IOs are
    #: forwarded to the SSD instead of being stripped at the block layer.
    open_interface: bool = False
    #: Deadlines used by the DEADLINE OS scheduler.
    read_deadline_ns: int = units.milliseconds(1)
    write_deadline_ns: int = units.milliseconds(10)
    #: Keep every completed IoRequest object on the result (memory-heavy
    #: for long runs; meant for tests and fine-grained analysis).
    retain_completed_ios: bool = False

    def validate(self) -> None:
        if self.max_outstanding < 1:
            raise ValueError("max_outstanding must be >= 1")


@dataclass
class SimulationConfig:
    """Top-level configuration: one object describes one simulated system."""

    geometry: SsdGeometry = field(default_factory=SsdGeometry)
    timings: ChipTimings = field(default_factory=ChipTimings.slc)
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    host: HostConfig = field(default_factory=HostConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    crash: CrashConfig = field(default_factory=CrashConfig)
    overload: OverloadConfig = field(default_factory=OverloadConfig)
    seed: int = 42
    #: Hard stop for the virtual clock; ``None`` runs until workloads end.
    max_time_ns: Optional[int] = None
    #: Record per-command trace events (memory-heavy; off by default).
    trace_enabled: bool = False
    #: Runtime sanitizer (:mod:`repro.core.sanitize`): arm virtual-time
    #: monotonicity, flash state-machine, event-handle-leak and RNG
    #: stream-integrity checks.  Results are bit-identical either way;
    #: invariant violations raise ``SanitizerError`` instead of silently
    #: corrupting the run.
    sanitize: bool = False

    @property
    def logical_pages(self) -> int:
        """Size of the logical address space exposed to the host."""
        return int(self.geometry.total_pages * (1.0 - self.controller.overprovisioning))

    def copy(self) -> "SimulationConfig":
        """Deep copy, for experiment sweeps mutating one parameter."""
        return copy.deepcopy(self)

    def validate(self) -> None:
        """Check cross-field consistency; raises ``ValueError`` on issues."""
        self.geometry.validate()
        self.timings.validate()
        self.controller.validate(self.geometry)
        self.host.validate()
        self.reliability.validate(self.geometry)
        self.crash.validate()
        self.overload.validate()
        if self.logical_pages < 1:
            raise ValueError("overprovisioning leaves no logical space")
        plan = self.reliability.fault_plan
        plan_has_media_faults = plan is not None and (
            getattr(plan, "erase_failures", None) or getattr(plan, "program_failures", None)
        )
        if (
            self.reliability.enabled
            and self.controller.ftl is FtlKind.HYBRID
            and (
                self.reliability.program_fail_probability > 0.0
                or self.reliability.erase_fail_probability > 0.0
                or plan_has_media_faults
            )
        ):
            raise ValueError(
                "program/erase fault injection needs the generic GC to drain "
                "condemned blocks; the hybrid FTL manages physical space itself"
            )
        # Feasibility: every LUN must be able to hold its share of live
        # data while keeping the GC watermark plus the GC reserve block
        # free, otherwise steady state deadlocks on an all-live device.
        # The reliability spare pool is reserved the same way: spares
        # absorb runtime retirements, so they must never be needed to
        # hold the logical space in the first place.
        spare_blocks = (
            self.reliability.spare_blocks_per_lun if self.reliability.enabled else 0
        )
        slack_blocks = self.controller.gc_greediness + 1 + spare_blocks
        expected_good = int(
            self.geometry.total_pages * (1.0 - self.geometry.bad_block_rate)
        )
        usable_pages = (
            expected_good
            - self.geometry.total_luns * slack_blocks * self.geometry.pages_per_block
        )
        if self.logical_pages > usable_pages:
            raise ValueError(
                f"infeasible configuration: logical space {self.logical_pages} pages "
                f"exceeds {usable_pages} usable pages once every LUN reserves "
                f"gc_greediness+1 = {self.controller.gc_greediness + 1} blocks plus "
                f"{spare_blocks} spare blocks; raise "
                "overprovisioning, lower gc_greediness, shrink the spare pool, "
                "or add blocks"
            )

    def describe(self) -> str:
        """One-paragraph human-readable summary of the configuration."""
        g = self.geometry
        return (
            f"SSD {g.channels}ch x {g.luns_per_channel} LUN, "
            f"{g.blocks_per_lun} blk/LUN x {g.pages_per_block} pg/blk x "
            f"{units.format_bytes(g.page_size_bytes)} "
            f"({units.format_bytes(g.capacity_bytes)} raw, "
            f"OP {self.controller.overprovisioning:.0%}), "
            f"{self.timings.kind.value.upper()} chips, "
            f"FTL {self.controller.ftl.value}, "
            f"GC greediness {self.controller.gc_greediness}, "
            f"SSD sched {self.controller.scheduler.policy.value}, "
            f"OS sched {self.host.os_scheduler.value}, "
            f"QD {self.host.max_outstanding}, "
            f"open interface {'on' if self.host.open_interface else 'off'}"
        )


def small_config(**overrides: object) -> SimulationConfig:
    """A tiny SSD for unit tests: fast to simulate, still parallel.

    Tiny LUNs make per-LUN slack proportionally expensive, so the
    overprovisioning is higher than the demo configuration's.
    """
    config = SimulationConfig(
        geometry=SsdGeometry(
            channels=2,
            luns_per_channel=2,
            blocks_per_lun=32,
            pages_per_block=16,
            page_size_bytes=2048,
        ),
    )
    config.controller.overprovisioning = 0.18
    return _apply_overrides(config, overrides)


def demo_config(**overrides: object) -> SimulationConfig:
    """The configuration used by the demonstration experiments."""
    config = SimulationConfig(
        geometry=SsdGeometry(
            channels=4,
            luns_per_channel=2,
            blocks_per_lun=64,
            pages_per_block=32,
            page_size_bytes=4096,
        ),
    )
    return _apply_overrides(config, overrides)


def _apply_overrides(config: SimulationConfig, overrides: dict) -> SimulationConfig:
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise TypeError(f"unknown SimulationConfig field {key!r}")
        setattr(config, key, value)
    return config


def set_by_path(config: SimulationConfig, path: str, value: object) -> None:
    """Set a (possibly nested) configuration field by dotted path.

    Used by experiment grids: ``set_by_path(cfg,
    "controller.gc_greediness", 4)``.  Raises ``AttributeError`` for
    unknown paths so typos in sweeps fail fast.
    """
    parts = path.split(".")
    target = config
    for part in parts[:-1]:
        target = getattr(target, part)
    leaf = parts[-1]
    if dataclasses.is_dataclass(target) and leaf not in {
        f.name for f in dataclasses.fields(target)
    }:
        raise AttributeError(f"{type(target).__name__} has no field {leaf!r}")
    if not hasattr(target, leaf):
        raise AttributeError(f"{type(target).__name__} has no field {leaf!r}")
    setattr(target, leaf, value)
