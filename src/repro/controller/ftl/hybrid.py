"""FAST-style hybrid FTL: block mapping plus page-mapped log blocks.

The paper confines itself to "the most flexible schemes i.e., page-based
mappings"; this module extends the framework's mapping design space with
the classic hybrid scheme those papers compare against:

* most of the device is **block-mapped**: logical block ``lbn`` maps to
  one physical block, page offsets fixed (RAM cost: 4 bytes per block
  instead of 8 per page);
* updates land in a small pool of **page-mapped log blocks**;
* when the log pool is exhausted, a **merge** reclaims space: the oldest
  full log block's logical blocks are rewritten into fresh data blocks
  (a *full merge*: one read+program per page, in offset order), or, when
  a log block holds exactly one logical block written in order, it is
  simply promoted (*switch merge* -- no copying at all).

The hybrid FTL manages physical space itself (merges ARE its garbage
collection), so the controller's generic GC and wear-leveling modules
stand down (``manages_physical_space``).

Correctness under concurrency follows the same discipline as the other
FTLs: reads consult the log map before the block map; merge commits
compare each snapshot source against the current authoritative location,
so pages overwritten or trimmed mid-merge leave the freshly merged copy
as an invalidated orphan.

Design note: like the classic BAST/FAST descriptions, the log has a
single append point (one active log block at a time), so hybrid write
throughput is bounded by one LUN's program bandwidth even when write
amplification is near 1 -- visible in experiment E5b.  Page-level FTLs
stripe writes across every LUN; that freedom is precisely what the
block-level map gives up in exchange for its tiny RAM footprint.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Iterator, Optional

import numpy as np

from repro.controller.ftl.base import BaseFtl
from repro.core.events import IoRequest, WriteHints
from repro.hardware.addresses import Lpn, PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.state import iter_set_bits, popcounts, words_for

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController

_WORD_MASK = 0xFFFFFFFFFFFFFFFF


class _Merge:
    """One logical block being full-merged into a fresh data block.

    Every command of the merge carries the job in ``context``; the job
    shape follows :class:`repro.controller.gc._Evacuation`.
    """

    __slots__ = ("lbn", "base_lpn", "target", "snapshot", "offset")

    def __init__(
        self,
        lbn: int,
        base_lpn: Lpn,
        target: PhysicalAddress,
        snapshot: list[Optional[PhysicalAddress]],
    ):
        self.lbn = lbn
        #: The lpn at offset 0 of ``lbn``.
        self.base_lpn = base_lpn
        #: The new data block, as an explicit block-bound program address.
        self.target = target
        #: Per offset, the source location at merge start (``None`` for a
        #: filler page).
        self.snapshot = snapshot
        #: The offset being copied; offsets are copied strictly in order.
        self.offset = 0


class HybridFtl(BaseFtl):
    """Block-mapped FTL with a page-mapped log-block update area."""

    manages_physical_space = True

    def __init__(self, controller: "SsdController"):
        super().__init__(controller)
        config = controller.config
        hybrid = config.controller.hybrid
        geometry = config.geometry
        self.ppb = geometry.pages_per_block
        self.num_lbns = -(-config.logical_pages // self.ppb)
        self.max_log_blocks = hybrid.log_blocks
        self.switch_merge_enabled = hybrid.switch_merge
        if self.max_log_blocks < 1:
            raise ValueError("hybrid FTL needs at least one log block")
        # Feasibility: data blocks + log pool + one merge scratch block
        # plus one spare must fit the device.
        required = self.num_lbns + self.max_log_blocks + 2
        if required > geometry.total_blocks:
            raise ValueError(
                f"hybrid FTL needs {required} blocks "
                f"({self.num_lbns} data + {self.max_log_blocks} log + 2), "
                f"device has {geometry.total_blocks}; raise overprovisioning"
            )
        controller.memory.allocate_ram("hybrid block map", self.num_lbns * 4)
        controller.memory.allocate_ram(
            "hybrid validity bitmaps", self.num_lbns * (-(-self.ppb // 8))
        )
        controller.memory.allocate_ram(
            "hybrid log map", self.max_log_blocks * self.ppb * 8
        )

        # Block map as flat arrays (DESIGN.md "Array-backed device
        # state"): per-lbn data block as ``global block id + 1`` (0 =
        # none) plus a packed per-lbn bitmap of offsets whose current
        # version lives in the data block.
        self._luns_per_channel = geometry.luns_per_channel
        self._blocks_per_lun = geometry.blocks_per_lun
        self._lbn_words = words_for(self.ppb)
        self._data_block = np.zeros(self.num_lbns, dtype=np.int64)
        self._data_bits = np.zeros(self.num_lbns * self._lbn_words, dtype=np.uint64)
        self._mv_data_block = memoryview(self._data_block)
        self._mv_data_bits = memoryview(self._data_bits)
        #: lpn -> physical address of its current copy in a log block.
        self.log_map: dict[int, PhysicalAddress] = {}
        #: The log pool in allocation (FIFO) order: (lun_key, block_id)
        #: -> [pages handed out, writes committed].  Programs may be in
        #: flight between the two; a block is only merge-eligible once
        #: every write committed (mapping updated).
        self._log: dict[tuple[tuple[int, int], int], list[int]] = {}
        #: Writes waiting for a merge to free log space, as
        #: :meth:`_append_log` arguments.
        self._pending_writes: deque[
            tuple[Optional[IoRequest], int, Optional[Callable[[], None]], int]
        ] = deque()
        #: One full or switch merge runs at a time; a full merge walks
        #: the victim log block's lbns in ascending order.
        self._merging = False
        self._merge_victim: Optional[tuple[tuple[int, int], int]] = None
        self._merge_lbns: Iterator[int] = iter(())
        self._lun_rotation = 0

        self.full_merges = 0
        self.switch_merges = 0
        self.merged_pages = 0
        self.filler_pages = 0
        #: Flash work done by mount-time log consolidation after a crash
        #: (read by the crash coordinator to charge mount time).
        self.mount_consolidation = {"reads": 0, "programs": 0, "erases": 0}

    # ------------------------------------------------------------------
    # Address helpers
    # ------------------------------------------------------------------
    def _data_block_of(self, lbn: int) -> Optional[tuple[int, int, int]]:
        """(channel, lun, block) of the lbn's data block, if one exists."""
        encoded = self._mv_data_block[lbn]
        if encoded == 0:
            return None
        lun_index, block = divmod(encoded - 1, self._blocks_per_lun)
        channel, lun = divmod(lun_index, self._luns_per_channel)
        return (channel, lun, block)

    def _set_data_block(self, lbn: int, channel: int, lun: int, block: int) -> None:
        lun_index = channel * self._luns_per_channel + lun
        self._mv_data_block[lbn] = lun_index * self._blocks_per_lun + block + 1

    def _set_data_bit(self, lbn: int, offset: int) -> None:
        word = lbn * self._lbn_words + (offset >> 6)
        self._mv_data_bits[word] |= 1 << (offset & 63)

    def _fill_data_bits(self, lbn: int) -> None:
        """Mark every offset block-mapped (a switch merge's bitmap)."""
        base = lbn * self._lbn_words
        full_words, remainder = divmod(self.ppb, 64)
        for i in range(full_words):
            self._mv_data_bits[base + i] = _WORD_MASK
        if remainder:
            self._mv_data_bits[base + full_words] = (1 << remainder) - 1

    # ------------------------------------------------------------------
    # Mapping store: the log map overrides the block map
    # ------------------------------------------------------------------
    def mapped_address(self, lpn: Lpn) -> Optional[PhysicalAddress]:
        address = self.log_map.get(lpn)
        if address is not None:
            return address
        # The split and the data-bit test inlined: this runs twice per
        # merged page.
        lbn, offset = divmod(lpn, self.ppb)
        encoded = self._mv_data_block[lbn]
        if encoded == 0:
            return None
        if not self._mv_data_bits[lbn * self._lbn_words + (offset >> 6)] >> (offset & 63) & 1:
            return None
        lun_index, block = divmod(encoded - 1, self._blocks_per_lun)
        channel, lun = divmod(lun_index, self._luns_per_channel)
        return PhysicalAddress(channel, lun, block, offset)

    def _remap(self, lpn: Lpn, address: Optional[PhysicalAddress]) -> None:
        """Point ``lpn`` at a log page (``None`` unmaps it); either way
        its block-mapped copy is no longer current."""
        lbn, offset = divmod(lpn, self.ppb)
        word = lbn * self._lbn_words + (offset >> 6)
        self._mv_data_bits[word] &= ~(1 << (offset & 63)) & _WORD_MASK
        if address is None:
            self.log_map.pop(lpn, None)
        else:
            self.log_map[lpn] = address

    def _invalidate(self, address: PhysicalAddress) -> None:
        # No GC trigger: merges are this FTL's reclamation, and the
        # generic collector stands down (``manages_physical_space``).
        lun = self.controller.array.lun_grid[address.channel][address.lun]
        lun.invalidate(address.block, address.page)

    # ------------------------------------------------------------------
    # Physical block pool
    # ------------------------------------------------------------------
    def _take_free_block(self, for_merge: bool) -> Optional[tuple[tuple[int, int], int]]:
        """Claim a fully erased block, rotating over LUNs.

        Log allocations must leave one spare block for merges
        (``for_merge`` allocations may take the last one).
        """
        # The luns dict is built once, in channel-major geometry order, so
        # its insertion order is the deterministic LUN enumeration order.
        # simlint: disable=SIM003 -- insertion order == geometry order
        luns = list(self.controller.array.luns.items())
        total_free = sum(len(lun.free_block_ids) for _, lun in luns)
        if not for_merge and total_free <= 1:
            return None
        if total_free == 0:
            return None
        for offset in range(len(luns)):
            key, lun = luns[(self._lun_rotation + offset) % len(luns)]
            if lun.free_block_ids:
                self._lun_rotation = (self._lun_rotation + offset + 1) % len(luns)
                block_id = min(lun.free_block_ids)
                lun.take_free_block(block_id)
                return (key, block_id)
        return None

    def _write_pointer(self, key: tuple[tuple[int, int], int]) -> int:
        """The write pointer of the ``(lun_key, block_id)`` block."""
        (channel, lun), block_id = key
        lun_index = channel * self._luns_per_channel + lun
        return self.controller.array.state.mv_write_pointer[
            lun_index * self._blocks_per_lun + block_id
        ]

    @staticmethod
    def _explicit_address(key: tuple[tuple[int, int], int]) -> PhysicalAddress:
        (channel, lun), block_id = key
        return PhysicalAddress(channel, lun, block_id, -1)

    # ------------------------------------------------------------------
    # Logical IO: writes append to the log (reads and trims take the
    # shared path); the log-write completion may start a merge
    # ------------------------------------------------------------------
    def write(
        self,
        io: Optional[IoRequest],
        lpn: Lpn,
        hints: WriteHints,
        on_done: Optional[Callable[[], None]] = None,
        version: Optional[int] = None,
    ) -> None:
        if version is None:
            version = self.next_version(lpn)
        if io is not None:
            io.version = version
        if not self._append_log(io, lpn, on_done, version):
            self._pending_writes.append((io, lpn, on_done, version))
            self._start_merge()

    def _append_log(
        self,
        io: Optional[IoRequest],
        lpn: Lpn,
        on_done: Optional[Callable[[], None]],
        version: int,
    ) -> bool:
        """Program a write into the log's append point, opening a new log
        block when the tail is full; False when the pool has no room."""
        log = self._log
        slot = next(reversed(log)) if log else None
        if slot is None or log[slot][0] >= self.ppb:
            if len(log) >= self.max_log_blocks:
                return False
            slot = self._take_free_block(for_merge=False)
            if slot is None:
                return False
            log[slot] = [0, 0]
        log[slot][0] += 1
        cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.APPLICATION,
            self._explicit_address(slot),
            lpn=lpn,
            content=(lpn, version),
            context=on_done,
            io=io,
            on_complete=self._log_write_done,
        )
        self.controller.enqueue_command(cmd)
        return True

    def _log_write_done(self, cmd: FlashCommand) -> None:
        entry = self._log.get(((cmd.address.channel, cmd.address.lun), cmd.address.block))
        if entry is not None:
            entry[1] += 1
        self._write_done(cmd)
        if self._pending_writes and not self._merging:
            self._start_merge()

    # ------------------------------------------------------------------
    # Merging
    # ------------------------------------------------------------------
    def _start_merge(self) -> None:
        if self._merging:
            return
        victim = self._choose_victim()
        if victim is None:
            return  # in-flight log programs must land first; retried later
        self._merging = True
        if self.switch_merge_enabled:
            lbn = self._switchable_lbn(victim)
            if lbn is not None:
                self._do_switch_merge(victim, lbn)
                return
        self._merge_victim = victim
        lun_key, block_id = victim
        lun = self.controller.array.luns[lun_key]
        self._merge_lbns = iter(
            sorted(
                {lun.read(block_id, i)[0] // self.ppb for i in lun.live_page_indexes(block_id)}
            )
        )
        self.full_merges += 1
        self._merge_next()

    def _choose_victim(self) -> Optional[tuple[tuple[int, int], int]]:
        # The oldest full log block; every page committed implies every
        # page handed out and programmed.
        # simlint: disable=SIM003 -- insertion order == FIFO allocation order
        for key, (_assigned, committed) in self._log.items():
            if committed >= self.ppb:
                return key
        return None

    def _switchable_lbn(self, victim) -> Optional[int]:
        """The single lbn this log block holds in perfect order, if any."""
        lun_key, block_id = victim
        lun = self.controller.array.luns[lun_key]
        if lun.state.mv_live_count[lun.lun_index * lun.blocks_per_lun + block_id] != self.ppb:
            return None
        lbn, offset = divmod(lun.read(block_id, 0)[0], self.ppb)
        if offset != 0 or lbn >= self.num_lbns:
            return None
        base_lpn = lbn * self.ppb
        for index in range(1, self.ppb):
            if lun.read(block_id, index)[0] != base_lpn + index:
                return None
        return lbn

    def _do_switch_merge(self, victim, lbn: int) -> None:
        """Promote a perfectly sequential log block to ``lbn``'s data block."""
        self.switch_merges += 1
        old_data = self._data_block_of(lbn)
        (lun_key, block_id) = victim
        self._set_data_block(lbn, lun_key[0], lun_key[1], block_id)
        self._fill_data_bits(lbn)
        for offset in range(self.ppb):
            self.log_map.pop(lbn * self.ppb + offset, None)
        del self._log[victim]
        if old_data is not None:
            # Every offset's current version moved: the old data block is
            # fully dead (its remaining live pages were invalidated when
            # the log copies superseded them, before the block filled).
            self._erase(*old_data)
        self._merge_finished()

    def _merge_next(self) -> None:
        """Full-merge the victim's next lbn into a fresh data block, or
        erase the victim once every lbn is merged."""
        lbn = next(self._merge_lbns, None)
        if lbn is None:
            victim = self._merge_victim
            del self._log[victim]
            (channel, lun), block_id = victim
            self._erase(channel, lun, block_id, self._merge_finished)
            return
        new_key = self._take_free_block(for_merge=True)
        if new_key is None:
            raise RuntimeError("hybrid FTL out of merge blocks (feasibility bug)")
        base_lpn = lbn * self.ppb
        mapped = self.mapped_address
        snapshot = [mapped(base_lpn + offset) for offset in range(self.ppb)]
        self._merge_copy(_Merge(lbn, base_lpn, self._explicit_address(new_key), snapshot))

    # One offset at a time, strictly in order: read -> program -> next.
    # Each command carries the job in ``context``; the bound methods
    # below are the completions.
    def _merge_copy(self, job: "_Merge") -> None:
        """Copy the job's current offset into its new data block."""
        offset = job.offset
        if offset == self.ppb:
            old_data = self._commit_merge(job.lbn, job.target, job.snapshot)
            if old_data is not None:
                self._erase(*old_data)
            self._merge_next()
            return
        lpn = job.base_lpn + offset
        source = job.snapshot[offset]
        if source is None:
            # Filler page: keeps offsets aligned; dead on arrival.
            self.filler_pages += 1
            cmd = FlashCommand(
                CommandKind.PROGRAM,
                CommandSource.GC,
                job.target,
                lpn=lpn,
                content=(lpn, 0),
                on_complete=self._merge_filler_done,
                context=job,
            )
        else:
            cmd = FlashCommand(
                CommandKind.READ,
                CommandSource.GC,
                source,
                lpn=lpn,
                on_complete=self._merge_read_done,
                context=job,
            )
        self.controller.enqueue_command(cmd)

    def _merge_read_done(self, read: FlashCommand) -> None:
        self.merged_pages += 1
        job, content = read.context, read.content
        cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.GC,
            job.target,
            lpn=content[0],
            content=content,
            on_complete=self._merge_program_done,
            context=job,
        )
        self.controller.enqueue_command(cmd)

    def _merge_program_done(self, cmd: FlashCommand) -> None:
        job = cmd.context
        job.offset += 1
        self._merge_copy(job)

    def _merge_filler_done(self, cmd: FlashCommand) -> None:
        self._invalidate(cmd.address)
        self._merge_program_done(cmd)

    def _commit_merge(
        self,
        lbn: int,
        target: PhysicalAddress,
        sources: list[Optional[PhysicalAddress]],
    ) -> Optional[tuple[int, int, int]]:
        """Make ``target``, a full copy of ``lbn`` from ``sources``, its
        data block; returns the data block it replaced.

        Shared by runtime and mount-time merges: every source that is
        still current is invalidated and its offset moves into the block
        map; a source superseded meanwhile leaves its copy dead.
        """
        old_data = self._data_block_of(lbn)
        channel, lun, block_id = target.channel, target.lun, target.block
        new_lun = self.controller.array.lun_grid[channel][lun]
        journal = self.controller.journal
        mapped = self.mapped_address
        base_lpn = lbn * self.ppb
        for offset, source in enumerate(sources):
            if source is None:
                continue  # filler, already invalidated
            lpn = base_lpn + offset
            if mapped(lpn) == source:
                self._invalidate(source)
                self.log_map.pop(lpn, None)
                self._set_data_bit(lbn, offset)
                if journal is not None:
                    self._journal_commit(
                        lpn,
                        self._committed_versions.get(lpn, 0),
                        PhysicalAddress(channel, lun, block_id, offset),
                    )
            else:
                # Overwritten or trimmed mid-merge: the merged copy is
                # stale on arrival.
                new_lun.invalidate(block_id, offset)
        self._set_data_block(lbn, channel, lun, block_id)
        return old_data

    def _erase(
        self,
        channel: int,
        lun: int,
        block: int,
        on_complete: Optional[Callable[[FlashCommand], None]] = None,
    ) -> None:
        """Erase a merged-away log block or a replaced data block."""
        cmd = FlashCommand(
            CommandKind.ERASE,
            CommandSource.GC,
            PhysicalAddress(channel, lun, block, 0),
            on_complete=on_complete,
        )
        self.controller.enqueue_command(cmd)

    def _merge_finished(self, _cmd: Optional[FlashCommand] = None) -> None:
        self._merging = False
        self._drain_pending()
        if self._pending_writes:
            self._start_merge()

    def _drain_pending(self) -> None:
        pending = self._pending_writes
        while pending and self._append_log(*pending[0]):
            pending.popleft()

    # ------------------------------------------------------------------
    # Crash consistency
    # ------------------------------------------------------------------
    def snapshot_map(self) -> dict[int, tuple[PhysicalAddress, int]]:
        snapshot: dict[int, tuple[PhysicalAddress, int]] = {}
        for lbn in np.nonzero(self._data_block)[0].tolist():
            channel, lun, block = self._data_block_of(lbn)
            base = lbn * self._lbn_words
            for word_index in range(self._lbn_words):
                word_base = word_index << 6
                for bit in iter_set_bits(self._mv_data_bits[base + word_index]):
                    offset = word_base + bit
                    lpn = lbn * self.ppb + offset
                    snapshot[lpn] = (
                        PhysicalAddress(channel, lun, block, offset),
                        self._committed_versions.get(lpn, 0),
                    )
        for lpn in sorted(self.log_map):
            snapshot[lpn] = (self.log_map[lpn], self._committed_versions.get(lpn, 0))
        return snapshot

    def rebuild_from_recovery(
        self,
        mapping: dict[int, tuple[PhysicalAddress, int]],
        issued_versions: dict[int, int],
        committed_versions: dict[int, int],
    ) -> None:
        """Re-derive the block/log split from a flat recovered mapping.

        The recovered map does not say which physical block was a data
        block and which was a log block -- and it does not have to: a
        block *is* a data block for lbn L exactly when every live entry
        in it sits at its block-mapped position for L.  Everything else
        is page-mapped state and goes back into the log pool.  Because
        runtime merges can only victimise *full* log blocks, blocks that
        cannot serve as the append tail are consolidated away here
        (synchronous mount-time merges) so the device cannot restart
        wedged.
        """
        self._load_version_tables(issued_versions, committed_versions)
        self._data_block[:] = 0
        self._data_bits[:] = 0
        self.log_map = {}
        self._pending_writes.clear()
        self._merging = False

        # Group recovered entries by the physical block holding them.
        by_block: dict[tuple[tuple[int, int], int], list[tuple[int, PhysicalAddress]]] = {}
        for lpn in sorted(mapping):
            address, _version = mapping[lpn]
            key = ((address.channel, address.lun), address.block)
            by_block.setdefault(key, []).append((lpn, address))

        # A block qualifies as data-block candidate for one lbn when all
        # of its entries sit at their block-mapped offset for that lbn.
        candidates: dict[int, list[tuple[tuple[tuple[int, int], int], int]]] = {}
        log_keys: list[tuple[tuple[int, int], int]] = []
        for key in sorted(by_block):
            entries = by_block[key]
            lbns = {lpn // self.ppb for lpn, _ in entries}
            aligned = len(lbns) == 1 and all(
                address.page == lpn % self.ppb for lpn, address in entries
            )
            if aligned:
                candidates.setdefault(lbns.pop(), []).append((key, len(entries)))
            else:
                log_keys.append(key)

        # One data block per lbn: most entries, fullest, lowest id wins.
        # In-order log blocks routinely qualify too; the losers rejoin
        # the log pool as ordinary page-mapped blocks.
        for lbn in sorted(candidates):
            ranked = sorted(
                candidates[lbn],
                key=lambda item: (-item[1], -self._write_pointer(item[0]), item[0]),
            )
            winner_key, _count = ranked[0]
            (channel, lun), block_id = winner_key
            self._set_data_block(lbn, channel, lun, block_id)
            for lpn, _address in by_block[winner_key]:
                self._set_data_bit(lbn, lpn % self.ppb)
            for loser_key, _count in ranked[1:]:
                log_keys.append(loser_key)
        # Full blocks first (merge-eligible), then at most one partial
        # block as the append tail; every other partial block plus any
        # pool overflow is consolidated away now.
        log_keys.sort(key=lambda key: (self._write_pointer(key) != self.ppb, key))
        self._log = {}
        for key in log_keys:
            for lpn, address in by_block[key]:
                self.log_map[lpn] = address
            pointer = self._write_pointer(key)
            self._log[key] = [pointer, pointer]
        self._consolidate_log_pool()

    def _consolidate_log_pool(self) -> None:
        def needs_consolidation() -> bool:
            if len(self._log) > self.max_log_blocks:
                return True
            # At most one partial block, and only as the append tail.
            partial = sum(1 for key in self._log if self._write_pointer(key) != self.ppb)
            return partial > 1 or (
                partial == 1 and self._write_pointer(next(reversed(self._log))) == self.ppb
            )

        while needs_consolidation() and self.log_map:
            per_lbn: dict[int, int] = {}
            for lpn in sorted(self.log_map):
                per_lbn[lpn // self.ppb] = per_lbn.get(lpn // self.ppb, 0) + 1
            lbn = max(sorted(per_lbn), key=lambda candidate: per_lbn[candidate])
            if not self._mount_merge_lbn(lbn):
                return  # no free block: degrade gracefully, keep zombies

    def _mount_merge_lbn(self, lbn: int) -> bool:
        """Synchronously merge one lbn into a fresh data block at mount.

        Equivalent to a runtime full merge: the copy is performed directly
        on the flash state machines (the event engine is frozen during a
        mount), the commit is the runtime merge's :meth:`_commit_merge`.
        The coordinator charges the read/program/erase work to mount time
        via ``mount_consolidation``.
        """
        array = self.controller.array
        new_key = None
        for lun_key in sorted(array.luns):
            new_lun = array.luns[lun_key]
            if new_lun.free_block_ids:
                new_id = min(new_lun.free_block_ids)
                new_lun.take_free_block(new_id)
                new_key = (lun_key, new_id)
                break
        if new_key is None:
            return False
        now = self.controller.sim.now
        sources = [
            self.mapped_address(lbn * self.ppb + offset) for offset in range(self.ppb)
        ]
        touched: set[tuple[tuple[int, int], int]] = set()
        for offset, source in enumerate(sources):
            lpn = lbn * self.ppb + offset
            if source is None:
                index = new_lun.program_next(new_id, (lpn, 0), now)
                new_lun.invalidate(new_id, index)
                self.filler_pages += 1
            else:
                source_lun = array.lun_grid[source.channel][source.lun]
                content = source_lun.read(source.block, source.page)
                new_lun.program_next(new_id, content, now)
                touched.add(((source.channel, source.lun), source.block))
                self.mount_consolidation["reads"] += 1
            self.mount_consolidation["programs"] += 1
        self.merged_pages += sum(1 for source in sources if source is not None)
        self.full_merges += 1
        old_data = self._commit_merge(lbn, self._explicit_address(new_key), sources)
        if old_data is not None:
            touched.add(((old_data[0], old_data[1]), old_data[2]))
        for key in sorted(touched):
            lun_key, block_id = key
            lun = array.luns[lun_key]
            bad = array.state.mv_bad[lun.lun_index * lun.blocks_per_lun + block_id]
            if lun.erasable(block_id) and not bad:
                lun.erase(block_id, now)
                lun.on_block_erased(block_id)
                self.mount_consolidation["erases"] += 1
                self._log.pop(key, None)
        return True

    # ------------------------------------------------------------------
    # GC / WL cooperation (not applicable: merges ARE the reclamation)
    # ------------------------------------------------------------------
    def on_relocation(self, content, old_address, new_address) -> bool:
        raise AssertionError(
            "generic GC/WL must not run against the hybrid FTL "
            "(manages_physical_space is set)"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mapped_page_count(self) -> int:
        bits = int(popcounts(self._data_bits).sum())
        return len(self.log_map) + bits

    def _mapping_memory_bytes(self) -> int:
        # The log map is a bounded dict (at most log_blocks * ppb
        # entries); its accounted footprint is the same 8-byte-per-slot
        # bound charged to controller RAM at construction.
        return (
            int(self._data_block.nbytes)
            + int(self._data_bits.nbytes)
            + self.max_log_blocks * self.ppb * 8
        )
