"""The LUN and the NAND state machine of its blocks.

:class:`Lun` enforces the NAND ground rules the rest of the simulator
relies on (DESIGN.md invariant 4):

* pages within a block are programmed strictly sequentially;
* a page is never programmed twice between erases;
* a block is only erased when it carries no live data and no in-flight
  read still targets it.

Validity is split between layers exactly as in a real SSD: the *array*
knows whether a page holds data (``LIVE``) or is erased (``FREE``); the
*FTL* decides when data becomes stale and calls :meth:`Lun.invalidate`
(``DEAD``).

The state itself lives in flat numpy arrays
(:class:`repro.hardware.state.FlashState`): one structure-of-arrays per
device, shared by every LUN.  A :class:`Lun` carries behaviour, never
state: its block operations take the LUN-local block id and act on the
arrays at ``lun_index * blocks_per_lun + block_id``.  Per-block metadata
(write pointer, erase count, live count, bad flag) is read from the
arrays directly, as bulk consumers (GC victim selection, recovery scans,
audits) do.  Constructing a :class:`Lun` without an explicit state
builds a private single-LUN :class:`FlashState`, so the class remains
usable standalone.
"""

from __future__ import annotations

from typing import Optional

from repro.core.sanitize import SanitizerError
from repro.hardware.state import FlashState, FreeBlockSet, iter_set_bits

PageContent = tuple[int, int]
"""What a programmed page stores: an ``(lpn, version)`` token.

The simulator does not shuffle real bytes around; the token is sufficient
for the read-your-writes integrity oracle used by the test suite.
Translation pages (DFTL) use negative pseudo-LPNs.
"""

_WORD_MASK = 0xFFFFFFFFFFFFFFFF


class FlashStateError(RuntimeError):
    """A NAND constraint was violated (always a simulator bug)."""


class Lun:
    """One logical unit: the minimum granularity of parallelism.

    Executes one array operation at a time (``current_command`` /
    ``busy_until``) and owns its blocks.  Free-block membership is kept
    incrementally so allocation and GC-trigger checks are O(1).
    """

    __slots__ = (
        "channel_id",
        "lun_id",
        "lun_index",
        "blocks_per_lun",
        "state",
        "current_command",
        "busy_until",
        "free_block_ids",
        "busy_ns",
        "_block_base",
        "_fully_dead",
        "_sanitize",
    )

    def __init__(
        self,
        channel_id: int,
        lun_id: int,
        blocks_per_lun: int,
        pages_per_block: int,
        bad_blocks: Optional[set[int]] = None,
        sanitize: bool = False,
        state: Optional[FlashState] = None,
        lun_index: int = 0,
    ):
        if state is None:
            #: Standalone construction: a private one-LUN state.
            state = FlashState(1, blocks_per_lun, pages_per_block)
            lun_index = 0
        self.channel_id = channel_id
        self.lun_id = lun_id
        self.lun_index = lun_index
        self.blocks_per_lun = blocks_per_lun
        self.state = state
        self._block_base = lun_index * blocks_per_lun
        #: This LUN's ``FlashState.fully_dead`` set.
        self._fully_dead = state.fully_dead[lun_index]
        #: Sanitizer mode (:mod:`repro.core.sanitize`): verify the page
        #: state machine and the live/dead counters on every mutation.
        self._sanitize = sanitize
        self.current_command = None  # type: Optional[object]
        self.busy_until = 0
        #: Blocks that are fully erased and not handed out as open blocks.
        self.free_block_ids = FreeBlockSet(state, lun_index)
        #: Cumulative array-phase time, for utilisation statistics.
        self.busy_ns = 0
        for block_id in bad_blocks or ():
            self.retire_block(block_id)

    @property
    def is_busy(self) -> bool:
        return self.current_command is not None

    @property
    def key(self) -> tuple[int, int]:
        return (self.channel_id, self.lun_id)

    # ------------------------------------------------------------------
    # Block predicates
    # ------------------------------------------------------------------
    def is_full(self, block_id: int) -> bool:
        s = self.state
        return s.mv_write_pointer[self._block_base + block_id] == s.pages_per_block

    def erasable(self, block_id: int) -> bool:
        """True when erasing would lose no data and break no reader."""
        s = self.state
        global_id = self._block_base + block_id
        return (
            s.mv_live_count[global_id] == 0
            and s.mv_inflight_reads[global_id] == 0
            and s.mv_write_pointer[global_id] != 0
        )

    # ------------------------------------------------------------------
    # Read holds: an erase waits until a block has none, so
    # stale-but-referenced data survives until its reads finish
    # ------------------------------------------------------------------
    def hold_read(self, block_id: int) -> None:
        """Count one more read queued or executing against a block."""
        self.state.mv_inflight_reads[self._block_base + block_id] += 1

    def release_read(self, block_id: int) -> int:
        """Drop one read hold; returns the count left (negative on an
        underflow, which the caller reports)."""
        inflight = self.state.mv_inflight_reads
        global_id = self._block_base + block_id
        inflight[global_id] -= 1
        return inflight[global_id]

    # ------------------------------------------------------------------
    # Block mutations (called by the array at command completion, and by
    # the FTL for invalidation)
    # ------------------------------------------------------------------
    def program_next(self, block_id: int, content: PageContent, now_ns: int) -> int:
        """Program a block's next sequential page; returns its index."""
        if self._sanitize:
            self._sanitize_check(block_id, "program")
        s = self.state
        global_id = self._block_base + block_id
        index = s.mv_write_pointer[global_id]
        if index == s.pages_per_block:
            raise FlashStateError("program on a full block")
        word, bit = s.bit_location(global_id, index)
        programmed = s.mv_programmed[word]
        if (programmed >> bit) & 1:
            if self._sanitize:
                raise SanitizerError(
                    "erase-before-program",
                    f"page {index} programmed twice without an intervening erase",
                    {
                        "block": self._label(block_id),
                        "page": index,
                        "state": s.page_state_name(global_id, index),
                    },
                )
            raise FlashStateError(f"page {index} programmed twice without erase")
        mask = 1 << bit
        s.mv_programmed[word] = programmed | mask
        s.mv_valid[word] |= mask
        ppn = global_id * s.pages_per_block + index
        s.mv_page_lpn[ppn] = content[0]
        s.mv_page_version[ppn] = content[1]
        s.mv_has_content[word] |= mask
        s.mv_write_pointer[global_id] = index + 1
        s.mv_live_count[global_id] += 1
        s.mv_last_write_ns[global_id] = now_ns
        return index

    def invalidate(self, block_id: int, page_index: int) -> None:
        """FTL hook: mark a superseded page as reclaimable."""
        if self._sanitize:
            self._sanitize_check(block_id, "invalidate")
        s = self.state
        global_id = self._block_base + block_id
        word, bit = s.bit_location(global_id, page_index)
        mask = 1 << bit
        valid = s.mv_valid[word]
        if not (valid & mask and s.mv_programmed[word] & mask):
            raise FlashStateError(f"invalidate on non-live page {page_index}")
        s.mv_valid[word] = valid & ~mask & _WORD_MASK
        live = s.mv_live_count[global_id] - 1
        s.mv_live_count[global_id] = live
        s.mv_dead_count[global_id] += 1
        if not live:
            self._fully_dead.add(global_id)

    def mark_torn(self, block_id: int, page_index: int) -> None:
        """Power-loss hook: the in-flight program writing this page was
        interrupted.  The page was charged at command start (NAND
        sequential-program bookkeeping), so it stays behind the write
        pointer, but its content is unreadable -- it becomes dead space."""
        s = self.state
        global_id = self._block_base + block_id
        word, bit = s.bit_location(global_id, page_index)
        mask = 1 << bit
        s.mv_torn[word] |= mask
        valid = s.mv_valid[word]
        if valid & mask and s.mv_programmed[word] & mask:
            s.mv_valid[word] = valid & ~mask & _WORD_MASK
            live = s.mv_live_count[global_id] - 1
            s.mv_live_count[global_id] = live
            s.mv_dead_count[global_id] += 1
            if not live:
                self._fully_dead.add(global_id)

    def erase(self, block_id: int, now_ns: int) -> int:
        """Erase a block; returns its erase count."""
        if self._sanitize:
            self._sanitize_check(block_id, "erase", full=True)
        s = self.state
        global_id = self._block_base + block_id
        live = s.mv_live_count[global_id]
        if live:
            raise FlashStateError(f"erase would destroy {live} live pages")
        inflight = s.mv_inflight_reads[global_id]
        if inflight:
            raise FlashStateError(f"erase with {inflight} in-flight reads")
        base = global_id * s.words_per_block
        for word_index in range(base, base + s.words_per_block):
            s.mv_programmed[word_index] = 0
            s.mv_valid[word_index] = 0
            s.mv_torn[word_index] = 0
            s.mv_has_content[word_index] = 0
        s.mv_write_pointer[global_id] = 0
        s.mv_live_count[global_id] = 0
        s.mv_dead_count[global_id] = 0
        erase_count = s.mv_erase_count[global_id] + 1
        s.mv_erase_count[global_id] = erase_count
        s.mv_last_erase_ns[global_id] = now_ns
        self._fully_dead.discard(global_id)
        return erase_count

    # ------------------------------------------------------------------
    # Page reads
    # ------------------------------------------------------------------
    def read(self, block_id: int, page_index: int) -> PageContent:
        """Content of a programmed page (live or dead -- stale reads of
        not-yet-erased data are legal while a read hold keeps the block
        from being erased)."""
        s = self.state
        global_id = self._block_base + block_id
        word, bit = s.bit_location(global_id, page_index)
        mask = 1 << bit
        if not (s.mv_programmed[word] & mask and s.mv_has_content[word] & mask):
            raise FlashStateError(f"read of unprogrammed page {page_index}")
        ppn = global_id * s.pages_per_block + page_index
        return (s.mv_page_lpn[ppn], s.mv_page_version[ppn])

    def live_page_indexes(self, block_id: int) -> list[int]:
        """Indexes of a block's pages the FTL still maps (GC must
        relocate these)."""
        return self.state.live_page_indexes(self._block_base + block_id)

    # ------------------------------------------------------------------
    # Sanitizer
    # ------------------------------------------------------------------
    def _label(self, block_id: int) -> str:
        """Physical identity for sanitizer diagnostics, e.g. "(c0,l1,b3)"."""
        return f"(c{self.channel_id},l{self.lun_id},b{block_id})"

    def _sanitize_check(self, block_id: int, operation: str, full: bool = False) -> None:
        """Sanitize mode: a block's counters and page states must agree.

        The O(1) counter identity ``live + dead == write_pointer`` runs
        before every mutation; erases additionally pay a packed-word scan
        verifying each page state (programmed strictly below the write
        pointer, erased at and above it)."""
        s = self.state
        global_id = self._block_base + block_id
        write_pointer = s.mv_write_pointer[global_id]
        if s.mv_live_count[global_id] + s.mv_dead_count[global_id] != write_pointer:
            raise SanitizerError(
                "flash-page-state",
                f"{operation}: live+dead != write_pointer",
                {
                    "block": self._label(block_id),
                    "live": s.mv_live_count[global_id],
                    "dead": s.mv_dead_count[global_id],
                    "write_pointer": write_pointer,
                },
            )
        if not full:
            return
        base = global_id * s.words_per_block
        for word_index in range(s.words_per_block):
            offset = word_index << 6
            below = write_pointer - offset
            if below <= 0:
                expected = 0
            elif below >= 64:
                expected = _WORD_MASK
            else:
                expected = (1 << below) - 1
            mismatch = s.mv_programmed[base + word_index] ^ expected
            # Mask off the padding bits past pages_per_block in the last word.
            pages_here = min(64, s.pages_per_block - offset)
            if pages_here < 64:
                mismatch &= (1 << pages_here) - 1
            if mismatch:
                index = offset + next(iter_set_bits(mismatch))
                raise SanitizerError(
                    "flash-page-state",
                    f"{operation}: page state contradicts the write pointer",
                    {
                        "block": self._label(block_id),
                        "page": index,
                        "state": s.page_state_name(global_id, index),
                        "write_pointer": write_pointer,
                    },
                )

    # ------------------------------------------------------------------
    # Free pool and bad blocks
    # ------------------------------------------------------------------
    def take_free_block(self, block_id: int) -> None:
        """Remove a block from the free set (it becomes an open block)."""
        if block_id not in self.free_block_ids:
            raise FlashStateError(f"block {block_id} is not free")
        self.free_block_ids.remove(block_id)

    def on_block_erased(self, block_id: int) -> None:
        """Array hook: an erase completed, the block is free again."""
        self.free_block_ids.add(block_id)

    def retire_block(self, block_id: int) -> None:
        """Mask a bad or worn-out block: it never returns to the free
        pool."""
        self.state.mv_bad[self._block_base + block_id] = 1
        self.free_block_ids.discard(block_id)

    @property
    def usable_blocks(self) -> int:
        start, stop = self.state.block_range(self.lun_index)
        return self.blocks_per_lun - int(self.state.bad[start:stop].sum())

    def total_free_pages(self) -> int:
        return self.state.lun_free_pages(self.lun_index)

    def erase_counts(self) -> list[int]:
        start, stop = self.state.block_range(self.lun_index)
        return self.state.erase_count[start:stop].tolist()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Lun(c{self.channel_id},l{self.lun_id}, free_blocks="
            f"{len(self.free_block_ids)}, busy={self.is_busy})"
        )
