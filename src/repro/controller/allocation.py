"""Write allocation: binding writes to LUNs, open blocks and pages.

Two decisions are split in time, mirroring the paper's observation that
"for writes, the mapping scheme imposes constraints on which physical
address a given IO might be bound to" while the scheduler decides
"where [...] and precisely when":

* **LUN choice** happens when a write command is created
  (:meth:`WriteAllocator.place_write`), according to the configured
  :class:`~repro.core.config.AllocationPolicy`.
* **Page binding** happens when the command starts executing on the
  array (:meth:`WriteAllocator.bind_program`), so pages inside a block
  are always programmed sequentially regardless of queue reordering.

The allocator maintains one *open block* per (LUN, stream).  Streams
separate data that should not share blocks: application hot/cold data
(temperature-aware placement), update-locality groups (open-interface
hint), GC relocations, wear-leveling migrations and DFTL translation
pages.  Dynamic wear leveling happens at free-block selection: hot
streams receive young (low erase count) blocks and cold streams old
blocks, as in the paper ("associate hot data with young blocks and cold
data with old blocks").

One free block per LUN is reserved for the garbage collector so that GC
can always make forward progress (deadlock freedom).
"""

from __future__ import annotations

import itertools
from typing import Callable, Optional

import numpy as np

from repro.core.config import AllocationPolicy, SimulationConfig
from repro.core.events import WriteHints
from repro.hardware.addresses import PhysicalAddress, iter_luns
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, FlashCommand
from repro.hardware.flash import Lun

#: Streams allowed to dip into the per-LUN GC reserve block: every GC
#: relocation stream ("gc", and "gc_hot"/"gc_cold" under temperature-
#: aware placement).
def _is_gc_stream(stream: str) -> bool:
    return stream.startswith("gc")


#: Streams carrying *known-cold* data, parked on old (high erase count)
#: blocks to retire them.  Plain GC survivors are NOT here: under a hot
#: workload they are hot, and sending them to the single oldest block
#: would concentrate wear instead of leveling it.  ``gc_cold`` IS here:
#: it only exists when a temperature source vouches for the data.
_COLD_STREAMS = frozenset({"app_cold", "wl_cold", "gc_cold"})

#: Number of distinct locality open blocks kept per LUN.
_LOCALITY_SLOTS = 4


class AllocationError(RuntimeError):
    """No physical page could be bound for a write (simulator bug or a
    configuration with no GC headroom)."""


class WriteAllocator:
    """Chooses LUNs, open blocks and pages for program operations."""

    def __init__(
        self,
        array: SsdArray,
        config: SimulationConfig,
        classify: Callable[[int, WriteHints], str],
        queue_depth: Callable[[tuple[int, int]], int],
    ):
        self.array = array
        self.config = config
        self.policy = config.controller.allocation
        #: Maps (lpn, hints) to an application stream name; provided by
        #: the controller from the temperature module.
        self.classify = classify
        #: Scheduler probe for the LEAST_QUEUED policy.
        self.queue_depth = queue_depth
        self.lun_keys = list(iter_luns(config.geometry))
        self._round_robin = itertools.cycle(self.lun_keys)
        #: (lun_key, stream) -> open block id.
        self.open_blocks: dict[tuple[tuple[int, int], str], int] = {}
        #: Free blocks per LUN held back for the garbage collector.
        self.gc_reserve = 1
        #: Called when a free block is consumed (GC trigger check).
        self.on_free_block_taken: Callable[[tuple[int, int]], None] = lambda key: None
        self._dynamic_wl = config.controller.wear_leveling.dynamic

    # ------------------------------------------------------------------
    # LUN choice (at command creation)
    # ------------------------------------------------------------------
    def place_write(self, lpn: int, hints: WriteHints) -> tuple[tuple[int, int], str]:
        """Choose the (channel, lun) and allocation stream for a new
        application write."""
        stream = "app"
        if self.policy is AllocationPolicy.TEMPERATURE:
            stream = self.classify(lpn, hints)
        if self.policy is AllocationPolicy.LOCALITY and "locality" in hints:
            group = int(hints["locality"])
            lun_key = self.lun_keys[group % len(self.lun_keys)]
            # Spread groups over (LUN, slot) combinations injectively up
            # to total_luns * slots groups, so co-updated groups do not
            # share open blocks unnecessarily.
            slot = (group // len(self.lun_keys)) % _LOCALITY_SLOTS
            return lun_key, f"loc{slot}"
        if self.policy is AllocationPolicy.STRIPE:
            return self.lun_keys[lpn % len(self.lun_keys)], stream
        if self.policy is AllocationPolicy.LEAST_QUEUED:
            return self._least_queued(stream), stream
        # ROUND_ROBIN, TEMPERATURE and LOCALITY-without-hint rotate.
        return self._next_with_capacity(stream), stream

    def place_internal(
        self, stream: str, exclude: Optional[tuple[int, int]] = None
    ) -> tuple[int, int]:
        """Choose a LUN for an internal write (translation pages,
        write-buffer flushes, rebalancing GC): round-robin over LUNs with
        capacity, optionally excluding one LUN (the rebalancing source)."""
        return self._next_with_capacity(stream, exclude=exclude)

    def _least_queued(self, stream: str) -> tuple[int, int]:
        best_key: Optional[tuple[int, int]] = None
        best_depth = 0
        for lun_key in self.lun_keys:
            if not self.has_capacity(lun_key, stream):
                continue
            depth = self.queue_depth(lun_key)
            if best_key is None or depth < best_depth:
                best_key, best_depth = lun_key, depth
        if best_key is not None:
            return best_key
        return self._next_with_capacity(stream)

    def _next_with_capacity(
        self, stream: str, exclude: Optional[tuple[int, int]] = None
    ) -> tuple[int, int]:
        first_choice = next(self._round_robin)
        lun_key = first_choice
        fallback = None
        for _ in range(len(self.lun_keys)):
            if lun_key != exclude:
                if fallback is None:
                    fallback = lun_key
                if self.has_capacity(lun_key, stream):
                    return lun_key
            lun_key = next(self._round_robin)
        # Every eligible LUN is at its watermark: keep the first eligible
        # rotation pick; the command waits until GC frees space there.
        return fallback if fallback is not None else first_choice

    # ------------------------------------------------------------------
    # Page binding (at command start) and its eligibility predicate
    # ------------------------------------------------------------------
    def can_bind(self, cmd: FlashCommand) -> bool:
        """True when a physical page can be bound for ``cmd`` right now."""
        address = cmd.address
        if cmd.kind is CommandKind.PROGRAM and address.block >= 0:
            # Explicitly block-bound program (hybrid FTL): bindable while
            # the designated block has room.
            lun = self.array.lun_grid[address.channel][address.lun]
            return not lun.is_full(address.block)
        lun_key = (address.channel, address.lun)
        if cmd.kind is CommandKind.COPYBACK:
            # The exact gc stream is only known once the source page is
            # read at start; the conservative check is "any gc capacity".
            return self._gc_capacity(lun_key)
        stream = self._stream_of(cmd)
        if _is_gc_stream(stream):
            return self._gc_capacity(lun_key)
        return self.has_capacity(lun_key, stream)

    def has_capacity(self, lun_key: tuple[int, int], stream: str) -> bool:
        lun = self.array.luns[lun_key]
        block_id = self.open_blocks.get((lun_key, stream))
        if block_id is not None and not lun.is_full(block_id):
            return True
        return self._free_blocks_available(lun, stream) > 0

    def _gc_capacity(self, lun_key: tuple[int, int]) -> bool:
        """GC can bind when any gc-stream open block has space or a free
        block exists (gc streams may use the reserve)."""
        lun = self.array.luns[lun_key]
        if lun.free_block_ids:
            return True
        return self._gc_fallback_block(lun, lun_key) is not None

    def _gc_fallback_block(self, lun: Lun, lun_key: tuple[int, int]):
        """Any gc-stream open block on this LUN with a free page.

        With temperature-aware GC there can be several gc streams; when
        one cannot open a fresh block (reserve exhausted mid-job) it
        spills into a sibling's open block rather than deadlocking.
        """
        # simlint: disable=SIM003 -- open_blocks is a plain dict: insertion
        # order is deterministic and favours the longest-open gc stream.
        for (key, stream), block_id in self.open_blocks.items():
            if key == lun_key and _is_gc_stream(stream):
                if not lun.is_full(block_id):
                    return block_id
        return None

    def bind_program(self, cmd: FlashCommand) -> PhysicalAddress:
        """Array callback: pick the physical page for a starting PROGRAM
        or COPYBACK command."""
        address = cmd.address
        lun = self.array.lun_grid[address.channel][address.lun]
        if cmd.kind is CommandKind.PROGRAM and address.block >= 0:
            # Explicitly block-bound program: next sequential page of the
            # designated block.
            block_id = address.block
        else:
            lun_key = (address.channel, address.lun)
            stream = self._stream_of(cmd)
            block_id = self.open_blocks.get((lun_key, stream))
            if block_id is None or lun.is_full(block_id):
                try:
                    block_id = self._open_new_block(lun, lun_key, stream)
                except AllocationError:
                    if not _is_gc_stream(stream):
                        raise
                    block_id = self._gc_fallback_block(lun, lun_key)
                    if block_id is None:
                        raise
        write_pointer = lun.state.mv_write_pointer[lun.lun_index * lun.blocks_per_lun + block_id]
        return PhysicalAddress(address.channel, address.lun, block_id, write_pointer)

    def _open_new_block(self, lun: Lun, lun_key: tuple[int, int], stream: str) -> int:
        if self._free_blocks_available(lun, stream) <= 0:
            raise AllocationError(
                f"no bindable block on LUN {lun_key} for stream {stream!r} "
                f"(free={len(lun.free_block_ids)}, reserve={self.gc_reserve})"
            )
        block_id = self._pick_free_block(lun, stream)
        lun.take_free_block(block_id)
        self.open_blocks[(lun_key, stream)] = block_id
        self.on_free_block_taken(lun_key)
        return block_id

    def _free_blocks_available(self, lun: Lun, stream: str) -> int:
        free = len(lun.free_block_ids)
        if _is_gc_stream(stream):
            return free
        return free - self.gc_reserve

    def _pick_free_block(self, lun: Lun, stream: str) -> int:
        """Dynamic wear leveling: known-cold streams retire old blocks;
        everything else takes the youngest block (classic wear-aware
        allocation).  Vectorized over the LUN's free-block mask."""
        state = lun.state
        start, _ = state.block_range(lun.lun_index)
        candidates = np.nonzero(lun.free_block_ids.mask())[0]
        if self._dynamic_wl and stream in _COLD_STREAMS:
            # max over (erase_count, -block_id): lowest id among maxima.
            erases = state.erase_count[start + candidates]
            return int(candidates[int(np.argmax(erases == erases.max()))])
        if self._dynamic_wl:
            erases = state.erase_count[start + candidates]
            return int(candidates[int(np.argmax(erases == erases.min()))])
        return int(candidates[0])

    def gc_stream_for(self, lpn: int) -> str:
        """The relocation stream for a GC'd page: temperature-aware when
        the allocation policy separates temperatures, so hot and cold
        survivors do not re-mix at every GC cycle."""
        if self.policy is AllocationPolicy.TEMPERATURE:
            app_stream = self.classify(lpn, {})
            if app_stream == "app_hot":
                return "gc_hot"
            if app_stream == "app_cold":
                return "gc_cold"
        return "gc"

    def _stream_of(self, cmd: FlashCommand) -> str:
        if cmd.kind is CommandKind.COPYBACK:
            if cmd.content is not None and cmd.content[0] >= 0:
                return self.gc_stream_for(cmd.content[0])
            return "gc"
        return cmd.stream

    # ------------------------------------------------------------------
    # Introspection for GC / WL
    # ------------------------------------------------------------------
    def open_block_ids(self, lun_key: tuple[int, int]) -> set[int]:
        """Blocks currently open for writing on a LUN.

        GC and WL must not touch these.  Full blocks are excluded even if
        still registered: they will be replaced at the next bind and are
        legitimate reclamation victims already.
        """
        lun = self.array.luns[lun_key]
        return {
            block_id
            for (key, _), block_id in self.open_blocks.items()
            if key == lun_key and not lun.is_full(block_id)
        }

    def note_erased(self, lun_key: tuple[int, int], block_id: int) -> None:
        """Controller hook: a block was erased.  Any stale open-block
        registration pointing at it must be dropped, otherwise a stream
        would keep writing a block that re-entered the free list."""
        self.release_open_block(lun_key, block_id)

    def release_open_block(self, lun_key: tuple[int, int], block_id: int) -> None:
        """Forget an open block registration."""
        stale = [
            key
            for key, registered in sorted(self.open_blocks.items())
            if key[0] == lun_key and registered == block_id
        ]
        for key in stale:
            del self.open_blocks[key]
