"""Error handling and recovery: retries, parity rebuild, retirement.

:class:`ReliabilityManager` is the controller-resident brain of the
reliability subsystem.  The array stays dumb: it only *draws* outcomes
(through the hooks below) and reports them on the command; every
reaction -- re-issuing a read up the retry ladder, rebuilding a page
from channel parity, condemning a block after a program failure --
happens here, by intercepting the controller's command-completion
funnel.  Reactions are therefore ordinary flash commands flowing through
the ordinary scheduler queues, so error handling inflates tail latency
exactly the way it does in a real device.

Recovery hierarchy for reads::

    ECC corrects          -> CORRECTED, data served (decode latency only)
    ECC fails             -> retry ladder: re-issue the read, lower RBER
    ladder exhausted      -> parity rebuild: read the stripe's peers on
                             the other channels, XOR-reconstruct
    no parity / rebuilt   -> REBUILT, or UNCORRECTABLE (data loss,
                             reported to the host via IoStatus)

Program failures invalidate the just-written page, *condemn* the block
(the GC relocates its live pages and retires it -- reusing the normal
relocation machinery) and transparently retransmit the write to another
block.  Erase failures retire the block directly (handled in the array,
counted here).  Every runtime retirement consumes one block of the
spare pool; when more blocks have retired than the pool holds, the
device degrades to read-only mode and rejects further writes with
:class:`~repro.core.events.IoStatus.READ_ONLY` instead of corrupting or
crashing.

Parity is RAISE-style channel striping: pages at the same (lun, block,
page) position across the channels form a stripe whose XOR the
controller maintains incrementally (real devices dedicate a channel or
rotate parity; the capacity cost is out of scope here, the *rebuild
traffic* is what this models).  The tracker doubles as a consistency
oracle for ``check_invariants``.

Two modelling simplifications, both documented where they bite:

* Copyback relocations skip the read-error and program-failure draws: a
  copyback moves raw data without the controller seeing it, so real
  designs disable copyback when error rates demand status checking.
  Configurations that study program failures should disable copyback
  (the E18 benchmark does).
* Peer reads issued for a rebuild are raw array reads and skip the ECC
  draw themselves -- recursive rebuilds of rebuilds are not modelled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.core import units
from repro.core.events import IoStatus, IoType
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandOutcome, FlashCommand
from repro.hardware.flash import Lun, PageContent
from repro.reliability.ecc import EccModel, ReadVerdict
from repro.reliability.errors import BitErrorModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController
    from repro.hardware.array import SsdArray

_MASK64 = (1 << 64) - 1

#: CHECKPOINT_JOURNAL: battery-backed journal capacity in records;
#: filling it forces an immediate checkpoint.
JOURNAL_CAPACITY_RECORDS = 4096
#: Bytes per journal record (battery RAM accounting).
JOURNAL_RECORD_BYTES = 16
#: CHECKPOINT_JOURNAL: mount cost per replayed journal record.
REPLAY_NS_PER_RECORD = 50
#: OOB_SCAN: out-of-band bytes read per scanned page.
OOB_BYTES = 16
#: Fixed mount overhead (controller boot, device identification).
MOUNT_BASE_NS = units.microseconds(100)


def pack_content(content: PageContent) -> int:
    """Pack an (lpn, version) token into one XOR-able word.

    LPNs may be negative (DFTL translation pages), so both halves are
    taken modulo 2^64 (two's complement) before packing.
    """
    lpn, version = content
    return ((lpn & _MASK64) << 64) | (version & _MASK64)


class ParityTracker:
    """Incremental XOR signature of every channel stripe.

    A stripe is the set of pages at one (lun, block, page) position
    across all channels.  The tracker is updated when pages are
    programmed and when blocks are erased; at quiescence the signatures
    must equal a from-scratch recomputation over the array (checked by
    :meth:`check`), which catches any bookkeeping drift in the
    program/erase/retirement paths.
    """

    def __init__(self) -> None:
        #: (lun, block, page) -> [xor signature, member count]
        self._stripes: dict[tuple[int, int, int], list[int]] = {}

    def on_program(self, address: PhysicalAddress, content: PageContent) -> None:
        key = (address.lun, address.block, address.page)
        entry = self._stripes.get(key)
        if entry is None:
            entry = self._stripes[key] = [0, 0]
        entry[0] ^= pack_content(content)
        entry[1] += 1

    def on_erase(self, lun: Lun, block_id: int) -> None:
        """Remove a block's contributions; call *before* the erase wipes
        the page contents."""
        state = lun.state
        global_id = state.block_range(lun.lun_index)[0] + block_id
        for page_index in range(state.mv_write_pointer[global_id]):
            content = state.page_content(global_id, page_index)
            if content is None:
                continue
            key = (lun.lun_id, block_id, page_index)
            entry = self._stripes[key]
            entry[0] ^= pack_content(content)
            entry[1] -= 1
            if entry[1] == 0:
                if entry[0] != 0:
                    raise AssertionError(f"parity residue on empty stripe {key}")
                del self._stripes[key]

    def signature(self, lun_id: int, block_id: int, page_index: int) -> int:
        entry = self._stripes.get((lun_id, block_id, page_index))
        return entry[0] if entry else 0

    @staticmethod
    def _recompute(array: "SsdArray") -> dict[tuple[int, int, int], list[int]]:
        """Every stripe's signature, from scratch over the flash contents
        (including torn and retired-block pages, which :meth:`on_program`
        always folded in)."""
        state = array.state
        stripes: dict[tuple[int, int, int], list[int]] = {}
        for (_, lun_id), lun in sorted(array.luns.items()):
            start, stop = state.block_range(lun.lun_index)
            for block_id, global_id in enumerate(range(start, stop)):
                for page_index in range(state.mv_write_pointer[global_id]):
                    content = state.page_content(global_id, page_index)
                    if content is None:
                        continue
                    entry = stripes.setdefault((lun_id, block_id, page_index), [0, 0])
                    entry[0] ^= pack_content(content)
                    entry[1] += 1
        return stripes

    def resync(self, array: "SsdArray") -> None:
        """Rebuild the signatures from scratch after a crash mount: the
        incremental state died with the controller RAM, and the flash
        contents are the ground truth."""
        self._stripes = self._recompute(array)

    def check(self, array: "SsdArray") -> None:
        """Recompute every stripe from the array and compare."""
        recomputed = self._recompute(array)
        if recomputed != self._stripes:
            extra = set(self._stripes) - set(recomputed)
            missing = set(recomputed) - set(self._stripes)
            raise AssertionError(
                f"parity tracker inconsistent with array: "
                f"{len(missing)} stripes missing, {len(extra)} stale "
                f"(e.g. {sorted(missing or extra)[:3]})"
            )


class _Rebuild:
    """One in-progress parity reconstruction of one failed read."""

    __slots__ = ("cmd", "pending")

    def __init__(self, cmd: FlashCommand):
        self.cmd = cmd
        self.pending = 0


class ReliabilityManager:
    """Draws error outcomes and orchestrates every recovery reaction."""

    def __init__(self, controller: "SsdController"):
        self.controller = controller
        config = controller.config.reliability
        self.config = config
        self.errors = BitErrorModel(config)
        self.ecc = EccModel(config, controller.config.geometry.page_size_bytes)
        self.parity: Optional[ParityTracker] = ParityTracker() if config.parity else None
        # Dedicated streams: enabling reliability never perturbs the
        # randomness any other component observes (core/rng.py contract).
        self._read_stream = controller.rng.stream("reliability-read")
        self._program_stream = controller.rng.stream("reliability-program")
        self._erase_stream = controller.rng.stream("reliability-erase")
        # Fault-plan consumption state lives here, not on the plan, so a
        # plan can be shared by several same-seed runs.
        plan = config.fault_plan
        self._planned_erase_fails = dict(plan.erase_failures) if plan else {}
        self._planned_program_fails = dict(plan.program_failures) if plan else {}
        self._forced_reads = dict(plan.read_corruptions) if plan else {}
        self._erase_attempts: dict[tuple[int, int, int], int] = {}
        self._program_attempts: dict[tuple[int, int, int], int] = {}
        #: Raw peer reads issued for parity rebuilds: command id -> rebuild.
        self._peer_owner: dict[int, _Rebuild] = {}
        #: Failing-command id -> rebuild state.
        self._rebuilds: dict[int, _Rebuild] = {}
        self.total_spares = config.spare_blocks_per_lun * len(controller.array.luns)
        self.read_only = False
        self.read_only_entry_ns: Optional[int] = None
        # Counters surfaced through SimulationResult.summary().
        self.corrected_reads = 0
        self.uncorrectable_reads = 0
        self.read_retries = 0
        self.parity_rebuilds = 0
        self.program_fail_count = 0
        self.erase_fail_count = 0
        self.runtime_retired_blocks = 0
        self.writes_rejected = 0
        self.max_retry_index_seen = 0

    # ------------------------------------------------------------------
    # Small shared helpers
    # ------------------------------------------------------------------
    @property
    def read_decode_ns(self) -> int:
        """ECC decode latency the array adds to every read delivery."""
        return self.ecc.decode_ns

    def _note(self, kind: str, detail: str) -> None:
        self.controller.stats.record_reliability_event(kind)
        self.controller.tracer.record(self.controller.sim.now, "reliability", kind, detail)

    @staticmethod
    def _block_key(address: PhysicalAddress) -> tuple[int, int, int]:
        return (address.channel, address.lun, address.block)

    def _planned_failure(
        self,
        plan: dict[tuple[int, int, int], set[int]],
        attempts: dict[tuple[int, int, int], int],
        address: PhysicalAddress,
    ) -> bool:
        """Count this attempt against the plan; True when it must fail.

        Attempt counters are only kept for blocks the plan mentions, so
        an installed plan costs nothing on unrelated blocks.
        """
        key = self._block_key(address)
        scheduled = plan.get(key)
        if not scheduled:
            return False
        attempt = attempts.get(key, 0) + 1
        attempts[key] = attempt
        return attempt in scheduled

    # ------------------------------------------------------------------
    # Array hooks: outcome draws and flash-state notifications
    # ------------------------------------------------------------------
    def read_outcome(self, cmd: FlashCommand, lun: Lun, now: int) -> None:
        """Draw the ECC verdict for a completed read (array hook).

        Peer reads of an ongoing rebuild are raw reads and keep SUCCESS.
        """
        if cmd.id in self._peer_owner:
            return
        if cmd.lpn is not None and self._forced_reads.get(cmd.lpn, 0) > 0:
            cmd.outcome = CommandOutcome.UNCORRECTABLE
            return
        state = lun.state
        global_id = lun.lun_index * lun.blocks_per_lun + cmd.address.block
        rber = self.errors.rber(
            state.mv_erase_count[global_id], max(0, now - state.mv_last_write_ns[global_id])
        )
        if rber <= 0.0:
            return
        verdict = self.ecc.classify(rber, cmd.retry_index, self._read_stream)
        if verdict is ReadVerdict.CORRECTED:
            cmd.outcome = CommandOutcome.CORRECTED
        elif verdict is ReadVerdict.UNCORRECTABLE:
            cmd.outcome = CommandOutcome.UNCORRECTABLE

    def program_fails(self, cmd: FlashCommand) -> bool:
        """Draw a program-failure status for a completed program."""
        if self._planned_failure(self._planned_program_fails, self._program_attempts, cmd.address):
            self.program_fail_count += 1
            return True
        p = self.errors.program_fail_probability
        if p > 0.0 and self._program_stream.random() < p:
            self.program_fail_count += 1
            return True
        return False

    def erase_fails(self, cmd: FlashCommand) -> bool:
        """Draw an erase-failure status for a completing erase."""
        if self._planned_failure(self._planned_erase_fails, self._erase_attempts, cmd.address):
            self.erase_fail_count += 1
            return True
        p = self.errors.erase_fail_probability
        if p > 0.0 and self._erase_stream.random() < p:
            self.erase_fail_count += 1
            return True
        return False

    def on_page_programmed(self, address: PhysicalAddress, content: PageContent) -> None:
        if self.parity is not None:
            self.parity.on_program(address, content)

    def on_block_erase(self, lun: Lun, block_id: int) -> None:
        """Array hook, called just before a block's contents are wiped."""
        if self.parity is not None:
            self.parity.on_erase(lun, block_id)

    def on_runtime_retirement(self, lun_key: tuple[int, int], block_id: int, reason: str) -> None:
        """A block left service at runtime (erase failure, condemnation
        after a program failure, or worn past the endurance limit).
        Consumes one spare; entering deficit degrades to read-only."""
        self.runtime_retired_blocks += 1
        self._note(
            "retire",
            f"block (c{lun_key[0]},l{lun_key[1]},b{block_id}) retired: {reason} "
            f"({self.runtime_retired_blocks}/{self.total_spares} spares used)",
        )
        if not self.read_only and self.runtime_retired_blocks > self.total_spares:
            self.read_only = True
            self.read_only_entry_ns = self.controller.sim.now
            self._note(
                "read-only",
                f"spare pool exhausted after {self.runtime_retired_blocks} retirements",
            )

    # ------------------------------------------------------------------
    # Host-facing degradation
    # ------------------------------------------------------------------
    def reject_if_read_only(self, io) -> bool:
        """Controller hook: fail writes/trims once the device is
        read-only.  The IO completes back to the OS with a distinct
        status instead of silently disappearing."""
        if not self.read_only or io.io_type is IoType.READ:
            return False
        io.status = IoStatus.READ_ONLY
        self.writes_rejected += 1
        self._note("write-rejected", f"{io.io_type} lpn={io.lpn} #{io.id}")
        self.controller.complete_quick(io)
        return True

    # ------------------------------------------------------------------
    # Completion-funnel interception
    # ------------------------------------------------------------------
    def intercept_completion(self, cmd: FlashCommand) -> bool:
        """React to a command's outcome.

        Returns True when the manager consumed the completion: the
        command's ``on_complete`` is deferred (a retry, rebuild or
        retransmitted program will deliver it later) and the caller must
        not invoke it.
        Returns False for normal delivery (possibly after mutating the
        command/IO state, e.g. marking data loss).
        """
        if cmd.kind is CommandKind.READ:
            if cmd.id in self._peer_owner:
                return False  # its own on_complete is the rebuild bookkeeping
            if cmd.outcome is CommandOutcome.CORRECTED:
                self.corrected_reads += 1
                self._note("corrected", f"{cmd.address} lpn={cmd.lpn} try={cmd.retry_index}")
                return False
            if cmd.outcome is CommandOutcome.UNCORRECTABLE:
                if cmd.retry_index < self.ecc.max_retries:
                    self._retry_read(cmd)
                    return True
                if self.parity is not None:
                    self._start_rebuild(cmd)
                    return True
                self._final_uncorrectable(cmd)
                return False
            return False
        if cmd.kind is CommandKind.PROGRAM and cmd.outcome is CommandOutcome.PROGRAM_FAIL:
            self._handle_program_fail(cmd)
            return True
        return False

    # ------------------------------------------------------------------
    # Read retry ladder
    # ------------------------------------------------------------------
    def _retry_read(self, cmd: FlashCommand) -> None:
        """Re-issue a failed read one step up the retry ladder.

        The clone keeps the source/stream/priority of the original so
        scheduling policies treat it identically (a new command *source*
        would change the FAIR policy's rotation for everyone), and it
        keeps io/context so the deferred callback resumes transparently.
        """
        retry = FlashCommand(
            CommandKind.READ,
            cmd.source,
            cmd.address,
            lpn=cmd.lpn,
            stream=cmd.stream,
            on_complete=cmd.on_complete,
            io=cmd.io,
            context=cmd.context,
        )
        retry.retry_index = cmd.retry_index + 1
        if retry.retry_index > self.max_retry_index_seen:
            self.max_retry_index_seen = retry.retry_index
        self.read_retries += 1
        self._note("retry", f"{cmd.address} lpn={cmd.lpn} try={retry.retry_index}")
        self.controller.enqueue_command(retry)

    def _final_uncorrectable(self, cmd: FlashCommand) -> None:
        """Retries exhausted and no parity: the data is lost.  The read
        still completes (the simulator's token survives for bookkeeping)
        but the host sees the failure status."""
        self.uncorrectable_reads += 1
        self._consume_forced_read(cmd.lpn)
        if cmd.io is not None:
            cmd.io.status = IoStatus.UNCORRECTABLE
        self._note("uncorrectable", f"{cmd.address} lpn={cmd.lpn} data lost")

    def _consume_forced_read(self, lpn: Optional[int]) -> None:
        if lpn is None:
            return
        remaining = self._forced_reads.get(lpn)
        if remaining is None:
            return
        if remaining <= 1:
            del self._forced_reads[lpn]
        else:
            self._forced_reads[lpn] = remaining - 1

    # ------------------------------------------------------------------
    # Parity rebuild
    # ------------------------------------------------------------------
    def _start_rebuild(self, cmd: FlashCommand) -> None:
        """Reconstruct an uncorrectable page from its channel stripe.

        Issues one raw read per programmed stripe peer; the failed read
        completes (outcome REBUILT) once the last peer arrives, so the
        rebuild's latency is the peers' real queueing + service time.
        """
        rebuild = _Rebuild(cmd)
        address = cmd.address
        array = self.controller.array
        peers: list[PhysicalAddress] = []
        for channel in range(self.controller.config.geometry.channels):
            if channel == address.channel:
                continue
            lun = array.luns[(channel, address.lun)]
            global_id = lun.lun_index * lun.blocks_per_lun + address.block
            if address.page >= array.state.mv_write_pointer[global_id]:
                continue  # stripe position not programmed on this channel
            current = lun.current_command
            if (
                current is not None
                and getattr(current, "kind", None) is CommandKind.ERASE
                and current.address.block == address.block
            ):
                # The peer is mid-erase; its contribution is already
                # folded into the parity the controller holds.
                continue
            peers.append(PhysicalAddress(channel, address.lun, address.block, address.page))
        self._rebuilds[cmd.id] = rebuild
        self.parity_rebuilds += 1
        self._consume_forced_read(cmd.lpn)
        self._note(
            "rebuild",
            f"{address} lpn={cmd.lpn} from {len(peers)} stripe peers",
        )
        if not peers:
            # Degenerate stripe: the parity word alone holds the copy.
            self._finish_rebuild(rebuild)
            return
        rebuild.pending = len(peers)
        for peer_address in peers:
            peer = FlashCommand(
                CommandKind.READ,
                cmd.source,
                peer_address,
                stream=cmd.stream,
                on_complete=self._peer_read_done,
            )
            self._peer_owner[peer.id] = rebuild
            self.controller.enqueue_command(peer)

    def _peer_read_done(self, peer: FlashCommand) -> None:
        rebuild = self._peer_owner.pop(peer.id)
        rebuild.pending -= 1
        if rebuild.pending == 0:
            self._finish_rebuild(rebuild)

    def _finish_rebuild(self, rebuild: _Rebuild) -> None:
        cmd = rebuild.cmd
        self._rebuilds.pop(cmd.id, None)
        cmd.outcome = CommandOutcome.REBUILT
        self._note("rebuilt", f"{cmd.address} lpn={cmd.lpn}")
        if cmd.on_complete is not None:
            cmd.on_complete(cmd)

    # ------------------------------------------------------------------
    # Program failure: condemn + retransmit
    # ------------------------------------------------------------------
    def _handle_program_fail(self, cmd: FlashCommand) -> None:
        """The array reported a failed program status.

        The page's content is suspect: invalidate it, condemn the block
        (GC relocates its live pages, then it retires) and retransmit
        the write to a fresh block.  The originator (FTL, GC job, write
        buffer) only ever sees the successful retransmission, exactly
        like a real controller hides program failures from the host.
        """
        address = cmd.address
        lun_key = cmd.lun_key
        lun = self.controller.array.luns[lun_key]
        lun.invalidate(address.block, address.page)
        self._note(
            "program-fail",
            f"{address} lpn={cmd.lpn}; condemning block b{address.block}",
        )
        self.controller.allocator.release_open_block(lun_key, address.block)
        self.controller.gc.condemn(lun_key, address.block)
        retransmit = FlashCommand(
            CommandKind.PROGRAM,
            cmd.source,
            PhysicalAddress(lun_key[0], lun_key[1], -1, -1),
            lpn=cmd.lpn,
            content=cmd.content,
            stream=cmd.stream,
            on_complete=cmd.on_complete,
            io=cmd.io,
            context=cmd.context,
        )
        self.controller.enqueue_command(retransmit)

    # ------------------------------------------------------------------
    # Invariants (quiescent-state checks for the test suite)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        if self._rebuilds or self._peer_owner:
            raise AssertionError(
                f"{len(self._rebuilds)} rebuilds / {len(self._peer_owner)} "
                "peer reads still pending at quiescence"
            )
        if self.max_retry_index_seen > self.ecc.max_retries:
            raise AssertionError(
                f"retry index {self.max_retry_index_seen} exceeds ladder "
                f"depth {self.ecc.max_retries}"
            )
        expected_read_only = self.runtime_retired_blocks > self.total_spares
        if self.read_only != expected_read_only:
            raise AssertionError(
                f"read_only={self.read_only} but {self.runtime_retired_blocks} "
                f"retirements against {self.total_spares} spares"
            )
        if self.parity is not None:
            self.parity.check(self.controller.array)


# ----------------------------------------------------------------------
# Crash-consistent mapping persistence (PR 5)
# ----------------------------------------------------------------------
def checkpoint_flash_pages(entries: int, page_size_bytes: int) -> int:
    """Flash pages one mapping checkpoint occupies: 8 bytes per entry
    plus one root/header page (also the floor for an empty mapping)."""
    return -(-entries * 8 // page_size_bytes) + 1


class MappingJournal:
    """A battery-backed RAM journal of committed mapping changes.

    Every mapping commit (host write, relocation, merge move, trim)
    appends one fixed-size record; recovery replays records newer than
    the last checkpoint.  Capacity is bounded by the battery RAM the
    configuration grants; filling up forces an immediate checkpoint
    (scheduled at the current instant, so an in-progress commit finishes
    updating its map before the snapshot is taken).
    """

    def __init__(self, controller: "SsdController"):
        self.controller = controller
        self.capacity = JOURNAL_CAPACITY_RECORDS
        controller.memory.allocate_battery_ram(
            "mapping journal", self.capacity * JOURNAL_RECORD_BYTES
        )
        #: (seq, kind, lpn, version, address); seq is monotonic across
        #: clears so replay order is global.
        self.records: list[tuple[int, str, int, int, Optional[PhysicalAddress]]] = []
        self._seq = 0

    def record_write(self, lpn: int, version: int, address: PhysicalAddress) -> None:
        self._append("write", lpn, version, address)

    def record_trim(self, lpn: int) -> None:
        self._append("trim", lpn, 0, None)

    def _append(
        self, kind: str, lpn: int, version: int, address: Optional[PhysicalAddress]
    ) -> None:
        self._seq += 1
        self.records.append((self._seq, kind, lpn, version, address))
        checkpointer = self.controller.checkpointer
        if checkpointer is not None:
            checkpointer.ensure_timer()
            if len(self.records) >= self.capacity:
                checkpointer.request_checkpoint("journal-full")

    def clear(self) -> None:
        self.records = []


class CheckpointManager:
    """Periodic synchronous snapshots of the committed mapping.

    The snapshot itself is a dictionary copy (instantaneous in virtual
    time -- real controllers stage it through RAM); its flash footprint
    is *accounted, not contended*: the MAPPING program commands are
    charged to the statistics (so runtime write amplification shows the
    checkpointing tax) without occupying flash blocks, which keeps the
    checkpoint store out of the GC/WL design space.
    """

    def __init__(self, controller: "SsdController"):
        self.controller = controller
        self.interval_ns = controller.config.crash.checkpoint_interval_ns
        #: Last persisted mapping: lpn -> (address, version).
        self.checkpoint: dict[int, tuple[PhysicalAddress, int]] = {}
        self.checkpoints_taken = 0
        self.checkpoint_pages_written = 0
        self._overflow_scheduled = False
        self._timer_running = False

    def start(self) -> None:
        self._timer_running = True
        self.controller.sim.post(self.interval_ns, self._tick)

    def ensure_timer(self) -> None:
        """Journal hook: (re)arm the periodic timer on the first commit
        after an idle stretch."""
        if not self._timer_running:
            self.start()

    def _tick(self) -> None:
        journal = self.controller.journal
        if journal is not None and not journal.records:
            # Nothing committed since the last checkpoint: the timer goes
            # idle instead of keeping the event queue alive forever; the
            # next journal append re-arms it.
            self._timer_running = False
            return
        self.checkpoint_now("periodic")
        self.controller.sim.post(self.interval_ns, self._tick)

    def request_checkpoint(self, reason: str) -> None:
        """Checkpoint at the current instant, after the in-flight commit
        chain unwinds (a synchronous snapshot from inside ``_append``
        would capture a map whose caller has not finished updating it)."""
        if self._overflow_scheduled:
            return
        self._overflow_scheduled = True
        self.controller.sim.post(0, self.checkpoint_now, reason)

    def checkpoint_now(self, reason: str) -> None:
        controller = self.controller
        self._overflow_scheduled = False
        self.checkpoint = controller.ftl.snapshot_map()
        if controller.journal is not None:
            controller.journal.clear()
        pages = checkpoint_flash_pages(
            len(self.checkpoint), controller.config.geometry.page_size_bytes
        )
        self.checkpoints_taken += 1
        self.checkpoint_pages_written += pages
        now = controller.sim.now
        for _ in range(pages):
            controller.stats.record_flash_command("MAPPING", "PROGRAM", now)
        controller.tracer.record(
            now, "crash", "checkpoint",
            f"{reason}: {len(self.checkpoint)} entries in {pages} pages",
        )

    def seed(self, mapping: dict[int, tuple[PhysicalAddress, int]]) -> None:
        """Post-mount: the recovered mapping is the new baseline (the
        mount conceptually rewrote it), with an empty journal."""
        self.checkpoint = dict(mapping)


class RecoveredState:
    """What a recovery strategy hands back to the crash coordinator."""

    __slots__ = ("mapping", "mount_ns", "scanned_pages", "replayed_records")

    def __init__(
        self,
        mapping: dict[int, tuple[PhysicalAddress, int]],
        mount_ns: int,
        scanned_pages: int,
        replayed_records: int,
    ):
        self.mapping = mapping
        self.mount_ns = mount_ns
        self.scanned_pages = scanned_pages
        self.replayed_records = replayed_records


class OobScanRecovery:
    """Full-device scan of every programmed page's OOB token.

    No mapping state needs to survive the crash at all: each programmed
    page's out-of-band area durably carries its ``(lpn, version)`` token
    plus the per-page validity mark the FTL maintained (real FTLs store
    invalidation epochs or sequence numbers there).  The winners are the
    live, non-torn pages -- exactly the committed pre-crash mapping.
    The price is mount time proportional to the device's programmed
    capacity: every page pays a read plus the OOB transfer, parallel
    across LUNs.
    """

    name = "oob_scan"

    def recover(self, controller: "SsdController") -> RecoveredState:
        config = controller.config
        timings = config.timings
        array = controller.array
        state = array.state
        per_page_ns = (
            timings.t_cmd_ns + timings.t_read_ns + OOB_BYTES * timings.bus_ns_per_byte
        )
        # Scan cost: every programmed page of every block (retired blocks
        # included -- a real scan cannot know a block is bad until it has
        # read it), parallel across LUNs.
        wp_per_lun = state.write_pointer.reshape(
            state.num_luns, state.blocks_per_lun
        ).sum(axis=1)
        scanned = int(wp_per_lun.sum())
        slowest_lun_ns = int(wp_per_lun.max()) * per_page_ns

        # Candidate OOB tokens: LIVE (programmed & valid), not torn, with
        # a content token carrying a non-negative (host) LPN.
        words = state.programmed & state.valid & ~state.torn & state.has_content
        bits = np.unpackbits(words.view(np.uint8), bitorder="little")
        page_mask = bits.reshape(state.num_blocks, state.words_per_block * 64)[
            :, : state.pages_per_block
        ]
        page_mask = page_mask & (
            np.arange(state.pages_per_block) < state.write_pointer[:, None]
        )
        ppns = np.nonzero(page_mask.ravel())[0]
        lpns = state.page_lpn[ppns]
        versions = state.page_version[ppns]
        host = lpns >= 0  # FTL metadata (DFTL translation pages) is < 0
        ppns, lpns, versions = ppns[host], lpns[host], versions[host]

        mapping: dict[int, tuple[PhysicalAddress, int]] = {}
        if ppns.size:
            # Winner per LPN: highest version; the first-scanned (lowest
            # PPN) copy on a tie.  lexsort keys are least-significant
            # first: within each LPN, descending version then ascending
            # PPN, so each LPN's first row is its winner.
            order = np.lexsort((ppns, -versions, lpns))
            sorted_lpns = lpns[order]
            is_first = np.ones(sorted_lpns.size, dtype=bool)
            is_first[1:] = sorted_lpns[1:] != sorted_lpns[:-1]
            winners = order[is_first]  # aligned with ascending unique LPN
            # Dict insertion order matches the former scan: each LPN
            # appears where the scan first encountered it.
            _, first_seen = np.unique(lpns, return_index=True)
            winners = winners[np.argsort(first_seen, kind="stable")]
            decode = array.codec.decode
            for i in winners.tolist():
                mapping[int(lpns[i])] = (decode(int(ppns[i])), int(versions[i]))
        mount_ns = MOUNT_BASE_NS + slowest_lun_ns
        return RecoveredState(mapping, mount_ns, scanned, 0)


class CheckpointJournalRecovery:
    """Load the last mapping checkpoint, replay the battery-RAM journal.

    Mount time is the checkpoint read (proportional to the *mapping*
    size, not the device size) plus a per-record replay cost -- the
    classic trade against :class:`OobScanRecovery`: pay MAPPING program
    traffic at runtime to make mounts fast.
    """

    name = "checkpoint_journal"

    def recover(self, controller: "SsdController") -> RecoveredState:
        config = controller.config
        timings = config.timings
        checkpointer = controller.checkpointer
        journal = controller.journal
        if checkpointer is None or journal is None:
            raise RuntimeError(
                "checkpoint_journal recovery needs an armed checkpoint manager"
            )
        mapping = dict(checkpointer.checkpoint)
        records = sorted(journal.records)
        for _seq, kind, lpn, version, address in records:
            if kind == "trim":
                mapping.pop(lpn, None)
            else:
                assert address is not None
                mapping[lpn] = (address, version)
        checkpoint_pages = checkpoint_flash_pages(
            len(checkpointer.checkpoint), config.geometry.page_size_bytes
        )
        page_ns = (
            timings.t_cmd_ns
            + timings.t_read_ns
            + timings.transfer_ns(config.geometry.page_size_bytes)
        )
        mount_ns = (
            MOUNT_BASE_NS
            + checkpoint_pages * page_ns
            + len(records) * REPLAY_NS_PER_RECORD
        )
        return RecoveredState(mapping, mount_ns, checkpoint_pages, len(records))
