"""The flash array executor.

:class:`SsdArray` owns the channels and LUNs and runs
:class:`~repro.hardware.commands.FlashCommand` objects through their bus
and array phases in virtual time:

* ``READ``      bus(cmd) -> array(t_read) -> bus(cmd + data-out)
* ``PROGRAM``   bus(cmd + data-in) -> array(t_prog)
* ``ERASE``     bus(cmd) -> array(t_erase)
* ``COPYBACK``  bus(cmd) -> array(t_read) -> bus(cmd) -> array(t_prog)
  (the page moves inside the LUN; no data crosses the bus)

With interleaving enabled (paper Section 2.2) the channel is released
during array phases; otherwise the channel is held for the whole command.
With pipelining enabled (cache register) a read releases its LUN before
the data-out transfer, letting the next array operation start underneath.

Late binding of program targets: the array calls the controller-provided
``bind_program`` callback when a PROGRAM or COPYBACK *starts*, so pages
within each block are programmed strictly sequentially no matter how the
scheduler reordered the queue.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.config import ChipTimings, SsdGeometry
from repro.core.engine import Simulator
from repro.core.tracing import TraceRecorder
from repro.hardware.addresses import PhysicalAddress, iter_luns, validate_address
from repro.hardware.channel import Channel
from repro.hardware.commands import CommandKind, CommandOutcome, FlashCommand
from repro.hardware.flash import FlashStateError, Lun
from repro.hardware.state import AddressCodec, FlashState


def _deliver(cmd: FlashCommand) -> None:
    """The completion hook of an array without a controller."""
    if cmd.on_complete is not None:
        cmd.on_complete(cmd)


class SsdArray:
    """The simulated flash memory array (channels x LUNs)."""

    def __init__(
        self,
        sim: Simulator,
        geometry: SsdGeometry,
        timings: ChipTimings,
        interleaving: bool = True,
        pipelining: bool = False,
        tracer: Optional[TraceRecorder] = None,
        bad_blocks: Optional[dict[tuple[int, int], set[int]]] = None,
        sanitize: bool = False,
    ):
        self.sim = sim
        self.geometry = geometry
        self.timings = timings
        self.interleaving = interleaving
        self.pipelining = pipelining and timings.supports_pipelining
        self.tracer = tracer if tracer is not None else TraceRecorder(enabled=False)
        self.channels = [Channel(i) for i in range(geometry.channels)]
        t = timings
        page_in_out = t.t_cmd_ns + t.transfer_ns(geometry.page_size_bytes)
        #: Each command kind's phases as ``(is_array, duration_ns)``,
        #: built once.  Nothing changes a phase duration after
        #: construction; the only runtime edit of ``timings`` anywhere is
        #: to ``endurance_cycles``, which ``_complete`` reads directly.
        #: Keyed by the kind's ``_value_`` (its name): a ``str`` caches
        #: its hash, an enum member hashes in Python.
        self._plans: dict[str, tuple[tuple[bool, int], ...]] = {
            "READ": ((False, t.t_cmd_ns), (True, t.t_read_ns), (False, page_in_out)),
            "PROGRAM": ((False, page_in_out), (True, t.t_prog_ns)),
            "ERASE": ((False, t.t_cmd_ns), (True, t.t_erase_ns)),
            "COPYBACK": (
                (False, t.t_cmd_ns),
                (True, t.t_read_ns),
                (False, t.t_cmd_ns),
                (True, t.t_prog_ns),
            ),
        }
        bad_blocks = bad_blocks or {}
        #: The device-wide structure-of-arrays state every LUN views into.
        self.state = FlashState(
            geometry.total_luns, geometry.blocks_per_lun, geometry.pages_per_block
        )
        self.codec = AddressCodec(
            geometry.luns_per_channel,
            geometry.blocks_per_lun,
            geometry.pages_per_block,
        )
        self.luns: dict[tuple[int, int], Lun] = {
            (c, l): Lun(
                c,
                l,
                geometry.blocks_per_lun,
                geometry.pages_per_block,
                bad_blocks=bad_blocks.get((c, l)),
                sanitize=sanitize,
                state=self.state,
                lun_index=c * geometry.luns_per_channel + l,
            )
            for c, l in iter_luns(geometry)
        }
        #: The same LUNs indexed ``[channel][lun]`` for the hot lookups.
        self.lun_grid: list[list[Lun]] = [
            [self.luns[(channel, lun)] for lun in range(geometry.luns_per_channel)]
            for channel in range(geometry.channels)
        ]
        #: Blocks retired at runtime after reaching endurance_cycles.
        self.retired_blocks = 0
        #: Set by the controller: invoked whenever a channel or LUN frees,
        #: so the scheduler can dispatch more work.
        self.on_resource_free: Callable[[], None] = lambda: None
        #: Set by the controller: invoked when a LUN finishes its command
        #: and goes idle, before the matching ``on_resource_free``.
        self.on_lun_idle: Callable[[Lun], None] = lambda lun: None
        #: Set by the controller: receives every finished command (its
        #: completion funnel).  The default delivers ``cmd.on_complete``.
        self.on_command_complete: Callable[[FlashCommand], None] = _deliver
        #: Set by the controller's allocator: binds the physical page of a
        #: PROGRAM (or a COPYBACK target) at command start.
        self.bind_program: Optional[Callable[[FlashCommand], PhysicalAddress]] = None
        #: Set by the controller when the reliability subsystem is enabled
        #: (:class:`repro.reliability.recovery.ReliabilityManager`); None
        #: keeps every error path and RNG stream untouched.
        self.reliability = None

    # ------------------------------------------------------------------
    # Dispatch interface (called by the SSD scheduler)
    # ------------------------------------------------------------------
    def start(self, cmd: FlashCommand) -> None:
        """Begin executing ``cmd`` on its idle LUN.

        The scheduler starts a command only on an idle LUN whose channel
        is free, and only once the command is eligible (a program can
        bind, an erase target is erasable); a busy LUN raises here.
        """
        now = self.sim.now
        address = cmd.address
        lun = self.lun_grid[address.channel][address.lun]
        if lun.current_command is not None:
            raise FlashStateError(f"LUN {lun.key} busy, cannot start {cmd!r}")
        cmd.start_time = now
        lun.current_command = cmd
        kind = cmd.kind
        if kind is CommandKind.PROGRAM or kind is CommandKind.COPYBACK:
            self._apply_start_effects(cmd, lun)
        phases = self._plans[kind._value_]
        channel = self.channels[address.channel]
        if not self.interleaving:
            channel.occupy(now, sum(duration for _, duration in phases))
        if self.tracer.enabled:
            self.tracer.record(now, "hardware", "start", self._describe(cmd))
        self._run_phase(cmd, lun, channel, phases, 0)

    # ------------------------------------------------------------------
    # Phase machinery
    # ------------------------------------------------------------------
    # The phase methods carry the command's LUN and channel, resolved
    # once in :meth:`start`.  Each phase event posts its real handler:
    # the next phase, or :meth:`_complete` after the last one.  Every
    # plan starts with a bus phase and alternates bus and array phases.
    def _run_phase(
        self, cmd: FlashCommand, lun: Lun, channel: Channel, phases: tuple, index: int
    ) -> None:
        is_array, duration = phases[index]
        if is_array or not self.interleaving:
            if is_array:
                lun.busy_until = self.sim.now + duration
                lun.busy_ns += duration
            # Without interleaving the channel is held from start on.
            if index + 1 == len(phases):
                self.sim.post(duration, self._complete, cmd, lun)
            else:
                self.sim.post(duration, self._run_phase, cmd, lun, channel, phases, index + 1)
            return
        if self.pipelining and cmd.kind is CommandKind.READ and index == 2:
            # Cache register: the LUN can accept the next operation while
            # this read's data waits to drain over the bus.  Let the
            # scheduler dispatch *before* the data-out claims the channel
            # -- the next command's short command cycle slips ahead, so
            # its array time overlaps this transfer (cache-read mode).
            self._release_lun(cmd, lun)
            self.on_resource_free()
        now = self.sim.now
        if now >= channel.busy_until:
            # ``Channel.occupy`` without its busy check, just made.
            channel.busy_until = now + duration
            channel.busy_ns += duration
            self.sim.post(duration, self._after_bus, cmd, lun, channel, phases, index)
        else:
            channel.park_continuation(
                lambda: self._occupy_bus(cmd, lun, channel, phases, index, duration)
            )

    def _occupy_bus(
        self,
        cmd: FlashCommand,
        lun: Lun,
        channel: Channel,
        phases: tuple,
        index: int,
        duration: int,
    ) -> None:
        channel.occupy(self.sim.now, duration)
        self.sim.post(duration, self._after_bus, cmd, lun, channel, phases, index)

    def _after_bus(
        self, cmd: FlashCommand, lun: Lun, channel: Channel, phases: tuple, index: int
    ) -> None:
        # Only interleaving posts this: the bus phase released the channel.
        now = self.sim.now
        index += 1
        pump = index < len(phases)
        if pump:
            # An array phase follows every bus phase but the last: run
            # it here rather than through ``_run_phase``.
            duration = phases[index][1]
            lun.busy_until = now + duration
            lun.busy_ns += duration
            if index + 1 == len(phases):
                self.sim.post(duration, self._complete, cmd, lun)
            else:
                self.sim.post(duration, self._run_phase, cmd, lun, channel, phases, index + 1)
        else:
            self._complete(cmd, lun)
        # Serve parked bus phases FIFO while the bus stays free.
        while now >= channel.busy_until and channel.continuations:
            channel.continuations.popleft()()
            pump = True
        # ``_complete`` pumps last; unless a continuation ran since, the
        # device is as that pump left it and another would start nothing.
        if pump:
            self.on_resource_free()

    def _release_lun(self, cmd: FlashCommand, lun: Lun) -> None:
        if lun.current_command is cmd:
            lun.current_command = None
            self.on_lun_idle(lun)

    # ------------------------------------------------------------------
    # State effects
    # ------------------------------------------------------------------
    def _apply_start_effects(self, cmd: FlashCommand, lun: Lun) -> None:
        """Bind a PROGRAM's or COPYBACK's target and program it at
        command start.

        Programs take effect at start (the LUN is held for the duration,
        so no other operation can observe the intermediate state); reads
        and erases take effect at completion.
        """
        now = self.sim.now
        if cmd.kind is CommandKind.PROGRAM:
            if self.bind_program is None:
                raise FlashStateError("no program binder installed")
            if cmd.content is None:
                raise FlashStateError(f"{cmd!r} has no content to program")
            address = self.bind_program(cmd)
            validate_address(address, self.geometry)
            if address.lun != lun.lun_id or address.channel != lun.channel_id:
                raise FlashStateError(
                    f"binder moved {cmd!r} across LUNs: {address}"
                )
            cmd.address = address
        elif cmd.kind is CommandKind.COPYBACK:
            if self.bind_program is None:
                raise FlashStateError("no program binder installed")
            cmd.content = lun.read(cmd.address.block, cmd.address.page)
            target = self.bind_program(cmd)
            validate_address(target, self.geometry)
            if not target.same_lun(cmd.address):
                raise FlashStateError(
                    f"copyback target {target} outside source LUN of {cmd!r}"
                )
            cmd.target_address = target
        target_address = cmd.target_address or cmd.address
        page_index = lun.program_next(target_address.block, cmd.content, now)
        if page_index != target_address.page:
            raise FlashStateError(
                f"binder returned page {target_address.page}, block wrote {page_index}"
            )
        if self.reliability is not None:
            self.reliability.on_page_programmed(target_address, cmd.content)

    def _complete(self, cmd: FlashCommand, lun: Lun) -> None:
        now = self.sim.now
        decode_ns = 0
        if self.reliability is not None and cmd.kind is CommandKind.READ:
            decode_ns = self.reliability.read_decode_ns
        if cmd.kind is CommandKind.READ:
            block_id = cmd.address.block
            cmd.content = lun.read(block_id, cmd.address.page)
            # With deferred delivery the read keeps its in-flight hold
            # until the decode finishes, so an erase of the block cannot
            # slip in between completion and a retry the delivery might
            # enqueue.
            if decode_ns == 0 and lun.release_read(block_id) < 0:
                raise FlashStateError(f"inflight_reads underflow on {cmd!r}")
            if self.reliability is not None:
                self.reliability.read_outcome(cmd, lun, now)
        elif cmd.kind is CommandKind.PROGRAM:
            if self.reliability is not None and self.reliability.program_fails(cmd):
                cmd.outcome = CommandOutcome.PROGRAM_FAIL
        elif cmd.kind is CommandKind.COPYBACK:
            if lun.release_read(cmd.address.block) < 0:
                raise FlashStateError(f"inflight_reads underflow on {cmd!r}")
        elif cmd.kind is CommandKind.ERASE:
            block_id = cmd.address.block
            if self.reliability is not None and self.reliability.erase_fails(cmd):
                # Failed erase: the block keeps its (dead) contents --
                # parity stays consistent and stale reads still work --
                # and leaves service on the spot.
                cmd.outcome = CommandOutcome.ERASE_FAIL
                lun.retire_block(block_id)
                self.retired_blocks += 1
                self.tracer.record(
                    now, "hardware", "retire",
                    f"block (c{cmd.address.channel},l{cmd.address.lun},"
                    f"b{block_id}) erase failure",
                )
                self.reliability.on_runtime_retirement(cmd.lun_key, block_id, "erase failure")
            else:
                if self.reliability is not None:
                    self.reliability.on_block_erase(lun, block_id)
                erase_count = lun.erase(block_id, now)
                endurance = self.timings.endurance_cycles
                if endurance is not None and erase_count >= endurance:
                    # Worn out: mask the block instead of freeing it.
                    lun.retire_block(block_id)
                    self.retired_blocks += 1
                    self.tracer.record(
                        now, "hardware", "retire",
                        f"block (c{cmd.address.channel},l{cmd.address.lun},"
                        f"b{block_id}) reached endurance",
                    )
                    if self.reliability is not None:
                        self.reliability.on_runtime_retirement(
                            cmd.lun_key, block_id, "endurance"
                        )
                else:
                    lun.on_block_erased(block_id)
        cmd.complete_time = now
        self._release_lun(cmd, lun)
        if self.tracer.enabled:
            self.tracer.record(now, "hardware", "complete", self._describe(cmd))
        if decode_ns > 0:
            # ECC decode: delay only the delivery -- the LUN and channel
            # are already free for the next operation.
            self.sim.post(decode_ns, self._deliver_decoded, cmd, lun)
        else:
            self.on_command_complete(cmd)
        self.on_resource_free()

    def _deliver_decoded(self, cmd: FlashCommand, lun: Lun) -> None:
        """Deliver a read after its ECC decode delay, releasing the
        in-flight hold that kept the block safe from erases meanwhile."""
        self.on_command_complete(cmd)
        if lun.release_read(cmd.address.block) < 0:
            raise FlashStateError(f"inflight_reads underflow on {cmd!r}")
        self.on_resource_free()

    # ------------------------------------------------------------------
    # Power loss
    # ------------------------------------------------------------------
    def power_loss(self) -> list[PhysicalAddress]:
        """Destroy all volatile array state at a power cut.

        Programs and copybacks mutate flash at command *start* (see
        :meth:`_apply_start_effects`), so an in-flight one leaves a
        partially-programmed page behind: it is marked torn (dead,
        unreadable).  An in-flight erase applies at *completion*, so the
        block simply keeps its old contents.  Command/phase bookkeeping
        (LUN holds, channel occupancy, parked bus continuations,
        in-flight read holds) evaporates -- the events driving it are
        purged from the engine by the crash coordinator.  LUNs go idle
        here without ``on_lun_idle``: recovery builds a fresh scheduler,
        with empty queues, around the surviving array.

        Returns the torn page addresses, channel-major order.
        """
        torn: list[PhysicalAddress] = []
        for key in sorted(self.luns):
            lun = self.luns[key]
            cmd = lun.current_command
            if cmd is not None and cmd.kind in (
                CommandKind.PROGRAM,
                CommandKind.COPYBACK,
            ):
                address = cmd.target_address or cmd.address
                lun.mark_torn(address.block, address.page)
                torn.append(address)
            lun.current_command = None
            lun.busy_until = 0
        self.state.inflight_reads[:] = 0
        for channel in self.channels:
            channel.busy_until = 0
            channel.continuations.clear()
        return torn

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_live_pages(self) -> int:
        return int(self.state.live_count.sum())

    def erase_counts(self) -> list[int]:
        """Erase count of every block (wear histogram input)."""
        return self.state.erase_count.tolist()

    def channel_utilisation(self) -> list[float]:
        return [channel.utilisation(self.sim.now) for channel in self.channels]

    def lun_utilisation(self) -> dict[tuple[int, int], float]:
        now = self.sim.now
        if now <= 0:
            return {key: 0.0 for key in self.luns}
        return {key: min(1.0, lun.busy_ns / now) for key, lun in self.luns.items()}

    @staticmethod
    def _describe(cmd: FlashCommand) -> str:
        lpn = f" lpn={cmd.lpn}" if cmd.lpn is not None else ""
        target = f" -> {cmd.target_address}" if cmd.target_address else ""
        return f"{cmd.kind} {cmd.source} {cmd.address}{target}{lpn}"
