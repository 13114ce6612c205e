"""Flash block and LUN state machines.

The classes here enforce the NAND ground rules the rest of the simulator
relies on (DESIGN.md invariant 4):

* pages within a block are programmed strictly sequentially;
* a page is never programmed twice between erases;
* a block is only erased when it carries no live data and no in-flight
  read still targets it.

Validity is split between layers exactly as in a real SSD: the *array*
knows whether a page holds data (``LIVE``) or is erased (``FREE``); the
*FTL* decides when data becomes stale and calls :meth:`Block.invalidate`
(``DEAD``).

The state itself lives in flat numpy arrays
(:class:`repro.hardware.state.FlashState`): one structure-of-arrays per
device, shared by every LUN.  :class:`Block` and :class:`Lun` are
flyweight *views* into those arrays; single pages are read through
:meth:`Block.read` and :meth:`Block.live_page_indexes`, or through
:class:`FlashState` directly, as bulk consumers (GC victim selection,
recovery scans, audits) do.  Constructing a :class:`Block` or
:class:`Lun` without an explicit state builds a private single-LUN
:class:`FlashState`, so the classes remain usable standalone.
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


class Block:
    """View of one erase block: ``num_pages`` pages plus wear metadata.

    The wear-leveling module consumes ``erase_count`` and
    ``last_erase_ns`` (paper Section 2.2 WL: the default module tracks
    block ages and last-erase timestamps).
    """

    __slots__ = ("_s", "_id", "_ppn_base", "_fully_dead", "num_pages", "sanitize", "label")

    def __init__(
        self,
        num_pages: int,
        sanitize: bool = False,
        label: str = "?",
        state: Optional[FlashState] = None,
        block_id: int = 0,
    ):
        if state is None:
            #: Standalone construction (tests, scratch blocks): a private
            #: one-block state backs this view alone.
            state = FlashState(1, 1, num_pages, sanitize=sanitize)
        self._s = state
        self._id = block_id
        self._ppn_base = block_id * state.pages_per_block
        #: The owning LUN's ``FlashState.fully_dead`` set.
        self._fully_dead = state.fully_dead[block_id // state.blocks_per_lun]
        self.num_pages = num_pages
        #: Sanitizer mode (:mod:`repro.core.sanitize`): verify the page
        #: state machine and the live/dead counters on every mutation.
        self.sanitize = sanitize
        #: Physical identity for sanitizer diagnostics, e.g. "(c0,l1,b3)".
        self.label = label

    # ------------------------------------------------------------------
    # Array-backed attributes
    # ------------------------------------------------------------------
    @property
    def write_pointer(self) -> int:
        """Next page index to program (NAND sequential-program rule)."""
        return self._s.mv_write_pointer[self._id]

    @write_pointer.setter
    def write_pointer(self, value: int) -> None:
        self._s.mv_write_pointer[self._id] = value

    @property
    def erase_count(self) -> int:
        return self._s.mv_erase_count[self._id]

    @erase_count.setter
    def erase_count(self, value: int) -> None:
        self._s.mv_erase_count[self._id] = value

    @property
    def last_erase_ns(self) -> int:
        return self._s.mv_last_erase_ns[self._id]

    @last_erase_ns.setter
    def last_erase_ns(self, value: int) -> None:
        self._s.mv_last_erase_ns[self._id] = value

    @property
    def last_write_ns(self) -> int:
        return self._s.mv_last_write_ns[self._id]

    @last_write_ns.setter
    def last_write_ns(self, value: int) -> None:
        self._s.mv_last_write_ns[self._id] = value

    @property
    def inflight_reads(self) -> int:
        """Reads queued or executing against this block; erases must wait
        until this drops to zero so stale-but-referenced data survives."""
        return self._s.mv_inflight_reads[self._id]

    @inflight_reads.setter
    def inflight_reads(self, value: int) -> None:
        self._s.mv_inflight_reads[self._id] = value

    def hold_read(self) -> None:
        """Count one more read queued or executing against this block."""
        self._s.mv_inflight_reads[self._id] += 1

    def release_read(self) -> int:
        """Drop one read hold; returns the count left (negative on an
        underflow, which the caller reports)."""
        inflight = self._s.mv_inflight_reads
        block_id = self._id
        inflight[block_id] -= 1
        return inflight[block_id]

    @property
    def live_count(self) -> int:
        return self._s.mv_live_count[self._id]

    @live_count.setter
    def live_count(self, value: int) -> None:
        self._s.mv_live_count[self._id] = value

    @property
    def dead_count(self) -> int:
        return self._s.mv_dead_count[self._id]

    @dead_count.setter
    def dead_count(self, value: int) -> None:
        self._s.mv_dead_count[self._id] = value

    @property
    def is_bad(self) -> bool:
        """Factory-bad or worn out; masked from allocation forever."""
        return bool(self._s.mv_bad[self._id])

    @is_bad.setter
    def is_bad(self, value: bool) -> None:
        self._s.mv_bad[self._id] = 1 if value else 0

    # ------------------------------------------------------------------
    # Derived state
    # ------------------------------------------------------------------
    @property
    def free_pages(self) -> int:
        return self.num_pages - self._s.mv_write_pointer[self._id]

    @property
    def is_empty(self) -> bool:
        """True when fully erased (allocatable as a fresh open block)."""
        return self._s.mv_write_pointer[self._id] == 0

    @property
    def is_full(self) -> bool:
        return self._s.mv_write_pointer[self._id] == self.num_pages

    @property
    def erasable(self) -> bool:
        """True when erasing would lose no data and break no reader."""
        s, block_id = self._s, self._id
        return (
            s.mv_live_count[block_id] == 0
            and s.mv_inflight_reads[block_id] == 0
            and s.mv_write_pointer[block_id] != 0
        )

    # ------------------------------------------------------------------
    # Mutations (called by the array at command completion, and by the
    # FTL for invalidation)
    # ------------------------------------------------------------------
    def program_next(self, content: PageContent, now_ns: int) -> int:
        """Program the next sequential page; returns its index."""
        if self.sanitize:
            self._sanitize_check("program")
        s, block_id = self._s, self._id
        index = s.mv_write_pointer[block_id]
        if index == self.num_pages:
            raise FlashStateError("program on a full block")
        word, bit = s.bit_location(block_id, index)
        programmed = s.mv_programmed[word]
        if (programmed >> bit) & 1:
            if self.sanitize:
                raise SanitizerError(
                    "erase-before-program",
                    f"page {index} programmed twice without an intervening erase",
                    {
                        "block": self.label,
                        "page": index,
                        "state": s.page_state_name(block_id, index),
                    },
                )
            raise FlashStateError(f"page {index} programmed twice without erase")
        mask = 1 << bit
        s.mv_programmed[word] = programmed | mask
        s.mv_valid[word] |= mask
        ppn = self._ppn_base + index
        s.mv_page_lpn[ppn] = content[0]
        s.mv_page_version[ppn] = content[1]
        s.mv_has_content[word] |= mask
        s.mv_write_pointer[block_id] = index + 1
        s.mv_live_count[block_id] += 1
        s.mv_last_write_ns[block_id] = now_ns
        return index

    def invalidate(self, page_index: int) -> None:
        """FTL hook: mark a superseded page as reclaimable."""
        if self.sanitize:
            self._sanitize_check("invalidate")
        s, block_id = self._s, self._id
        word, bit = s.bit_location(block_id, page_index)
        mask = 1 << bit
        valid = s.mv_valid[word]
        if not (valid & mask and s.mv_programmed[word] & mask):
            raise FlashStateError(f"invalidate on non-live page {page_index}")
        s.mv_valid[word] = valid & ~mask & _WORD_MASK
        live = s.mv_live_count[block_id] - 1
        s.mv_live_count[block_id] = live
        s.mv_dead_count[block_id] += 1
        if not live:
            self._fully_dead.add(block_id)

    def mark_torn(self, page_index: int) -> None:
        """Power-loss hook: the in-flight program writing this page was
        interrupted.  The page was charged at command start (NAND
        sequential-program bookkeeping), so it stays behind the write
        pointer, but its content is unreadable -- it becomes dead space."""
        s, block_id = self._s, self._id
        word, bit = s.bit_location(block_id, page_index)
        mask = 1 << bit
        s.mv_torn[word] |= mask
        valid = s.mv_valid[word]
        if valid & mask and s.mv_programmed[word] & mask:
            s.mv_valid[word] = valid & ~mask & _WORD_MASK
            live = s.mv_live_count[block_id] - 1
            s.mv_live_count[block_id] = live
            s.mv_dead_count[block_id] += 1
            if not live:
                self._fully_dead.add(block_id)

    def _sanitize_check(self, operation: str, full: bool = False) -> None:
        """Sanitize mode: counters and page states must agree.

        The O(1) counter identity ``live + dead == write_pointer`` runs
        before every mutation; erases additionally pay a packed-word scan
        verifying each page state (programmed strictly below the write
        pointer, erased at and above it)."""
        s, block_id = self._s, self._id
        write_pointer = s.mv_write_pointer[block_id]
        if s.mv_live_count[block_id] + s.mv_dead_count[block_id] != write_pointer:
            raise SanitizerError(
                "flash-page-state",
                f"{operation}: live+dead != write_pointer",
                {
                    "block": self.label,
                    "live": s.mv_live_count[block_id],
                    "dead": s.mv_dead_count[block_id],
                    "write_pointer": write_pointer,
                },
            )
        if not full:
            return
        base = block_id * s.words_per_block
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
            # Mask off the padding bits past num_pages in the last word.
            pages_here = min(64, self.num_pages - offset)
            if pages_here < 64:
                mismatch &= (1 << pages_here) - 1
            if mismatch:
                index = offset + next(iter_set_bits(mismatch))
                raise SanitizerError(
                    "flash-page-state",
                    f"{operation}: page state contradicts the write pointer",
                    {
                        "block": self.label,
                        "page": index,
                        "state": s.page_state_name(block_id, index),
                        "write_pointer": write_pointer,
                    },
                )

    def read(self, page_index: int) -> PageContent:
        """Content of a programmed page (live or dead -- stale reads of
        not-yet-erased data are legal, see ``inflight_reads``)."""
        s, block_id = self._s, self._id
        word, bit = s.bit_location(block_id, page_index)
        mask = 1 << bit
        if not (s.mv_programmed[word] & mask and s.mv_has_content[word] & mask):
            raise FlashStateError(f"read of unprogrammed page {page_index}")
        ppn = self._ppn_base + page_index
        return (s.mv_page_lpn[ppn], s.mv_page_version[ppn])

    def erase(self, now_ns: int) -> None:
        if self.sanitize:
            self._sanitize_check("erase", full=True)
        s, block_id = self._s, self._id
        live = s.mv_live_count[block_id]
        if live:
            raise FlashStateError(f"erase would destroy {live} live pages")
        inflight = s.mv_inflight_reads[block_id]
        if inflight:
            raise FlashStateError(f"erase with {inflight} in-flight reads")
        base = block_id * s.words_per_block
        for word_index in range(base, base + s.words_per_block):
            s.mv_programmed[word_index] = 0
            s.mv_valid[word_index] = 0
            s.mv_torn[word_index] = 0
            s.mv_has_content[word_index] = 0
        s.mv_write_pointer[block_id] = 0
        s.mv_live_count[block_id] = 0
        s.mv_dead_count[block_id] = 0
        s.mv_erase_count[block_id] += 1
        s.mv_last_erase_ns[block_id] = now_ns
        self._fully_dead.discard(block_id)

    def live_page_indexes(self) -> list[int]:
        """Indexes of pages the FTL still maps (GC must relocate these)."""
        return self._s.live_page_indexes(self._id)


class _BlockSeq:
    """Lazy ``lun.blocks`` sequence: caches :class:`Block` views."""

    __slots__ = ("_lun", "_cache")

    def __init__(self, lun: "Lun") -> None:
        self._lun = lun
        self._cache: list[Optional[Block]] = [None] * lun.blocks_per_lun

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, index: int) -> Block:
        if index < 0:
            index += len(self._cache)
        view = self._cache[index]
        if view is None:
            view = self._lun._make_block(index)
            self._cache[index] = view
        return view

    def __iter__(self):
        for index in range(len(self._cache)):
            yield self[index]


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
        "blocks",
        "current_command",
        "busy_until",
        "free_block_ids",
        "busy_ns",
        "bad_block_ids",
        "_block_base",
        "_sanitize",
    )

    def __init__(
        self,
        channel_id: int,
        lun_id: int,
        blocks_per_lun: int,
        pages_per_block: int,
        bad_block_ids: Optional[set[int]] = None,
        sanitize: bool = False,
        state: Optional[FlashState] = None,
        lun_index: int = 0,
    ):
        if state is None:
            #: Standalone construction: a private one-LUN state.
            state = FlashState(1, blocks_per_lun, pages_per_block, sanitize=sanitize)
            lun_index = 0
        self.channel_id = channel_id
        self.lun_id = lun_id
        self.lun_index = lun_index
        self.blocks_per_lun = blocks_per_lun
        self.state = state
        self._block_base = lun_index * blocks_per_lun
        self._sanitize = sanitize
        self.blocks = _BlockSeq(self)
        self.current_command = None  # type: Optional[object]
        self.busy_until = 0
        #: Blocks that are fully erased and not handed out as open blocks.
        self.free_block_ids = FreeBlockSet(state, lun_index)
        #: Cumulative array-phase time, for utilisation statistics.
        self.busy_ns = 0
        #: Blocks masked as bad (factory defects + wear-outs).
        self.bad_block_ids: set[int] = set()
        for block_id in bad_block_ids or ():
            state.mv_bad[self._block_base + block_id] = 1
            self.free_block_ids.discard(block_id)
            self.bad_block_ids.add(block_id)

    def _make_block(self, block_id: int) -> Block:
        label = (
            f"(c{self.channel_id},l{self.lun_id},b{block_id})"
            if self._sanitize
            else "?"
        )
        return Block(
            self.state.pages_per_block,
            sanitize=self._sanitize,
            label=label,
            state=self.state,
            block_id=self._block_base + block_id,
        )

    @property
    def is_busy(self) -> bool:
        return self.current_command is not None

    @property
    def key(self) -> tuple[int, int]:
        return (self.channel_id, self.lun_id)

    def block(self, block_id: int) -> Block:
        # The view cache directly; ``blocks[i]`` only to build a view.
        view = self.blocks._cache[block_id]
        return view if view is not None else self.blocks[block_id]

    def take_free_block(self, block_id: int) -> Block:
        """Remove a block from the free set (it becomes an open block)."""
        if block_id not in self.free_block_ids:
            raise FlashStateError(f"block {block_id} is not free")
        self.free_block_ids.remove(block_id)
        return self.blocks[block_id]

    def on_block_erased(self, block_id: int) -> None:
        """Array hook: an erase completed, the block is free again."""
        self.free_block_ids.add(block_id)

    def retire_block(self, block_id: int) -> None:
        """Mask a worn-out block: it never returns to the free pool."""
        self.state.mv_bad[self._block_base + block_id] = 1
        self.free_block_ids.discard(block_id)
        self.bad_block_ids.add(block_id)

    @property
    def usable_blocks(self) -> int:
        return self.blocks_per_lun - len(self.bad_block_ids)

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
