"""Flat array-backed device state: the scale substrate of the simulator.

Everything the device-state hot path used to keep in per-page Python
objects and per-LPN dicts lives here as flat numpy arrays (DESIGN.md
"Array-backed device state"):

* :class:`FlashState` -- structure-of-arrays for every block and page of
  the device: packed-bit ``programmed`` / ``valid`` / ``torn`` /
  ``has_content`` bitmaps (one block-aligned run of 64-bit words per
  block) plus per-block metadata vectors (write pointer, erase count,
  live/dead counters, timestamps, bad flags).
* :class:`MappingTable` -- a single ``int64`` LPN -> PPN table storing
  ``ppn + 1`` so that 0 means *unmapped* (``np.zeros`` is calloc-backed:
  untouched table regions cost no resident memory, which is what lets a
  terabyte-class device fit in laptop RAM).
* :class:`VersionTable` -- per-LPN monotonic write versions, with the
  DFTL translation-page pseudo-LPNs (``-(tp+1)``) folded into the tail
  of the same array.
* :class:`FreeBlockSet` -- a per-LUN free-block membership view with
  O(1) ``len``/``in``/add/remove.

Scalar hot-path access goes through cached :class:`memoryview` objects
(~2x faster than numpy scalar indexing and returning plain Python ints);
bulk queries (GC victim selection, validity audits, recovery scans) use
vectorized numpy reductions over the same buffers.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np

from repro.hardware.addresses import Lpn, LunIndex, Pbn, PhysicalAddress, Ppn


#: Number of 64-bit words needed for ``bits`` packed bits.
def words_for(bits: int) -> int:
    return (bits + 63) >> 6


def popcounts(words: np.ndarray) -> np.ndarray:
    """Per-element set-bit counts of a uint64 array."""
    return np.bitwise_count(words)


def iter_set_bits(word: int) -> Iterator[int]:
    """Bit indexes of ``word``, ascending."""
    while word:
        low = word & -word
        yield low.bit_length() - 1
        word ^= low


class FlashState:
    """Structure-of-arrays state for every page and block of a device.

    Blocks are identified by a *global block id*
    ``lun_index * blocks_per_lun + block`` and pages by a *global page
    number* (PPN) ``block_id * pages_per_block + page``.  Bitmaps are
    block-aligned: each block owns ``words_per_block`` 64-bit words, so
    per-block operations (erase, popcount, validity audits) are whole
    word-row operations regardless of ``pages_per_block``.
    """

    def __init__(self, num_luns: int, blocks_per_lun: int, pages_per_block: int) -> None:
        self.num_luns = num_luns
        self.blocks_per_lun = blocks_per_lun
        self.pages_per_block = pages_per_block
        self.num_blocks = num_luns * blocks_per_lun
        self.num_pages = self.num_blocks * pages_per_block
        self.words_per_block = words_for(pages_per_block)
        num_words = self.num_blocks * self.words_per_block

        # Per-page payload: the (lpn, version) token of a programmed
        # page.  Meaningful only where ``has_content`` is set.
        self.page_lpn = np.zeros(self.num_pages, dtype=np.int64)
        self.page_version = np.zeros(self.num_pages, dtype=np.int64)

        # Packed page bitmaps.  Page states are derived:
        #   FREE = !programmed;  LIVE = programmed & valid;
        #   DEAD = programmed & !valid.
        # ``programmed`` is explicit (not derived from the write pointer)
        # so the sanitizer's erase scan can catch ghost pages programmed
        # behind the pointer's back.
        self.programmed = np.zeros(num_words, dtype=np.uint64)
        self.valid = np.zeros(num_words, dtype=np.uint64)
        self.torn = np.zeros(num_words, dtype=np.uint64)
        self.has_content = np.zeros(num_words, dtype=np.uint64)

        # Per-block metadata vectors.
        self.write_pointer = np.zeros(self.num_blocks, dtype=np.int64)
        self.erase_count = np.zeros(self.num_blocks, dtype=np.int64)
        self.last_erase_ns = np.zeros(self.num_blocks, dtype=np.int64)
        self.last_write_ns = np.zeros(self.num_blocks, dtype=np.int64)
        self.inflight_reads = np.zeros(self.num_blocks, dtype=np.int64)
        self.live_count = np.zeros(self.num_blocks, dtype=np.int64)
        self.dead_count = np.zeros(self.num_blocks, dtype=np.int64)
        self.bad = np.zeros(self.num_blocks, dtype=np.uint8)
        self.block_free = np.ones(self.num_blocks, dtype=np.uint8)

        # Cached memoryviews: scalar reads/writes through these return
        # plain Python ints and skip numpy's scalar boxing.
        self.mv_page_lpn = memoryview(self.page_lpn)
        self.mv_page_version = memoryview(self.page_version)
        self.mv_programmed = memoryview(self.programmed)
        self.mv_valid = memoryview(self.valid)
        self.mv_torn = memoryview(self.torn)
        self.mv_has_content = memoryview(self.has_content)
        self.mv_write_pointer = memoryview(self.write_pointer)
        self.mv_erase_count = memoryview(self.erase_count)
        self.mv_last_erase_ns = memoryview(self.last_erase_ns)
        self.mv_last_write_ns = memoryview(self.last_write_ns)
        self.mv_inflight_reads = memoryview(self.inflight_reads)
        self.mv_live_count = memoryview(self.live_count)
        self.mv_dead_count = memoryview(self.dead_count)
        self.mv_bad = memoryview(self.bad)
        self.mv_block_free = memoryview(self.block_free)

        #: Per LUN, the global ids of blocks holding programmed pages but
        #: no live page: erase-only reclaim walks these instead of
        #: scanning the LUN.  Derived state (outside :meth:`memory_bytes`)
        #: kept by the block operations of :class:`~repro.hardware.flash.Lun`:
        #: added by ``invalidate``/``mark_torn`` when a block's last live
        #: page dies, discarded by ``erase``.  It always
        #: holds every good block with ``write_pointer > 0`` and
        #: ``live_count == 0``; entries reprogrammed since they died, or
        #: retired, are pruned lazily by their reader.
        self.fully_dead: list[set[int]] = [set() for _ in range(num_luns)]

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    def block_range(self, lun_index: LunIndex) -> tuple[Pbn, Pbn]:
        """Global block-id span ``[start, stop)`` owned by a LUN."""
        start = lun_index * self.blocks_per_lun
        return start, start + self.blocks_per_lun

    def fully_dead_mask(self) -> np.ndarray:
        """Good blocks holding programmed pages but no live page."""
        return (self.bad == 0) & (self.write_pointer > 0) & (self.live_count == 0)

    def reseed_fully_dead(self) -> None:
        """Rebuild every LUN's ``fully_dead`` set from the arrays (after
        a bulk rewrite of ``live_count``)."""
        dead = np.nonzero(self.fully_dead_mask())[0]
        for fully_dead in self.fully_dead:
            fully_dead.clear()
        for block_id in dead.tolist():
            self.fully_dead[block_id // self.blocks_per_lun].add(block_id)

    def memory_bytes(self) -> int:
        """Bytes allocated (virtually) for the device-state arrays."""
        return sum(
            arr.nbytes
            for arr in (
                self.page_lpn, self.page_version,
                self.programmed, self.valid, self.torn, self.has_content,
                self.write_pointer, self.erase_count, self.last_erase_ns,
                self.last_write_ns, self.inflight_reads,
                self.live_count, self.dead_count, self.bad, self.block_free,
            )
        )

    # ------------------------------------------------------------------
    # Packed-bit helpers (page bits within block-aligned word rows)
    # ------------------------------------------------------------------
    def bit_location(self, block_id: Pbn, page: int) -> tuple[int, int]:
        return block_id * self.words_per_block + (page >> 6), page & 63

    def page_bit(self, bitmap: memoryview, block_id: Pbn, page: int) -> int:
        word, bit = self.bit_location(block_id, page)
        return (bitmap[word] >> bit) & 1

    def block_words(self, bitmap: np.ndarray) -> np.ndarray:
        """The bitmap reshaped to ``(num_blocks, words_per_block)``."""
        return bitmap.reshape(self.num_blocks, self.words_per_block)

    def live_page_indexes(self, block_id: Pbn) -> list[int]:
        """Pages of a block that are LIVE (programmed & valid), ascending."""
        valid = self.mv_valid
        base = block_id * self.words_per_block
        indexes: list[int] = []
        for word_index in range(self.words_per_block):
            offset = word_index << 6
            for bit in iter_set_bits(valid[base + word_index]):
                indexes.append(offset + bit)
        return indexes

    def page_state_name(self, block_id: Pbn, page: int) -> str:
        if not self.page_bit(self.mv_programmed, block_id, page):
            return "free"
        if self.page_bit(self.mv_valid, block_id, page):
            return "live"
        return "dead"

    def page_content(self, block_id: Pbn, page: int) -> Optional[tuple[Lpn, int]]:
        if not self.page_bit(self.mv_has_content, block_id, page):
            return None
        ppn = block_id * self.pages_per_block + page
        return (self.mv_page_lpn[ppn], self.mv_page_version[ppn])

    # ------------------------------------------------------------------
    # Whole-device aggregates
    # ------------------------------------------------------------------
    def lun_free_pages(self, lun_index: LunIndex) -> int:
        start, stop = self.block_range(lun_index)
        span = stop - start
        return span * self.pages_per_block - int(
            self.write_pointer[start:stop].sum()
        )


class AddressCodec:
    """PPN <-> :class:`PhysicalAddress` conversion for one geometry."""

    __slots__ = (
        "luns_per_channel",
        "blocks_per_lun",
        "pages_per_block",
        "pages_per_lun",
    )

    def __init__(
        self, luns_per_channel: int, blocks_per_lun: int, pages_per_block: int
    ) -> None:
        self.luns_per_channel = luns_per_channel
        self.blocks_per_lun = blocks_per_lun
        self.pages_per_block = pages_per_block
        self.pages_per_lun = blocks_per_lun * pages_per_block

    def encode(self, channel: int, lun: int, block: int, page: int) -> Ppn:
        lun_index = channel * self.luns_per_channel + lun
        return (lun_index * self.blocks_per_lun + block) * self.pages_per_block + page

    def decode(self, ppn: Ppn) -> PhysicalAddress:
        page = ppn % self.pages_per_block
        block_id = ppn // self.pages_per_block
        block = block_id % self.blocks_per_lun
        lun_index = block_id // self.blocks_per_lun
        return PhysicalAddress(
            lun_index // self.luns_per_channel,
            lun_index % self.luns_per_channel,
            block,
            page,
        )


class MappingTable:
    """A flat LPN -> PPN table: ``int64`` holding ``ppn + 1`` (0 = unmapped).

    The +1 shift keeps the *unmapped* sentinel at 0 so the table can be
    calloc-allocated (``np.zeros``): a terabyte-class mapping table only
    occupies resident memory where LPNs have actually been written.  The
    mapped count is maintained incrementally so ``len()`` is O(1).
    """

    __slots__ = ("codec", "table", "_mv", "_mapped")

    def __init__(self, logical_pages: int, codec: AddressCodec) -> None:
        self.codec = codec
        self.table = np.zeros(logical_pages, dtype=np.int64)
        self._mv = memoryview(self.table)
        self._mapped = 0

    def __len__(self) -> int:
        return self._mapped

    def __contains__(self, lpn: Lpn) -> bool:
        return self._mv[lpn] != 0

    def __getitem__(self, lpn: Lpn) -> PhysicalAddress:
        encoded = self._mv[lpn]
        if encoded == 0:
            raise KeyError(lpn)
        return self.codec.decode(encoded - 1)

    def get(self, lpn: Lpn) -> Optional[PhysicalAddress]:
        encoded = self._mv[lpn]
        if encoded == 0:
            return None
        return self.codec.decode(encoded - 1)

    def get_ppn(self, lpn: Lpn) -> Ppn:
        """Encoded ``ppn + 1`` (0 when unmapped) -- no address boxing."""
        return self._mv[lpn]

    def set(self, lpn: Lpn, address: Optional[PhysicalAddress]) -> None:
        """Map ``lpn`` to ``address``; ``None`` unmaps it."""
        mapped = self._mv[lpn] != 0
        if address is None:
            if mapped:
                self._mv[lpn] = 0
                self._mapped -= 1
            return
        if not mapped:
            self._mapped += 1
        self._mv[lpn] = self.codec.encode(
            address.channel, address.lun, address.block, address.page
        ) + 1

    def mapped_lpns(self) -> np.ndarray:
        """All mapped LPNs, ascending (vectorized scan)."""
        return np.nonzero(self.table)[0]

    def items_sorted(self) -> Iterator[tuple[int, PhysicalAddress]]:
        """(lpn, address) pairs in ascending LPN order."""
        decode = self.codec.decode
        table = self.table
        for lpn in np.nonzero(table)[0].tolist():
            yield lpn, decode(int(table[lpn]) - 1)

    def clear(self) -> None:
        self.table[:] = 0
        self._mapped = 0

    def memory_bytes(self) -> int:
        return int(self.table.nbytes)


class VersionTable:
    """Per-LPN monotonic version counters with pseudo-LPN folding.

    DFTL journals translation pages under negative pseudo-LPNs
    ``-(tp + 1)``; those are folded into the tail of the same array at
    index ``logical_pages + tp``.  Versions start at 1 (0 = never
    issued), matching the former ``dict.get(lpn, 0)`` semantics.
    """

    __slots__ = ("logical_pages", "table", "_mv")

    def __init__(self, logical_pages: int, pseudo_lpns: int = 0) -> None:
        self.logical_pages = logical_pages
        self.table = np.zeros(logical_pages + pseudo_lpns, dtype=np.int64)
        self._mv = memoryview(self.table)

    def _index(self, lpn: Lpn) -> int:
        if lpn >= 0:
            return lpn
        return self.logical_pages + (-lpn - 1)

    def get(self, lpn: Lpn, default: int = 0) -> int:
        value = self._mv[self._index(lpn)]
        return value if value else default

    def set(self, lpn: Lpn, version: int) -> None:
        self._mv[self._index(lpn)] = version

    def bump(self, lpn: Lpn) -> int:
        """Increment and return the version (the ``next_version`` hot path)."""
        index = self._index(lpn)
        version = self._mv[index] + 1
        self._mv[index] = version
        return version

    def to_dict(self) -> dict[int, int]:
        """Nonzero entries as a plain ``{lpn: version}`` dict (diagnostics
        and crash-divergence checks; zero entries were never issued)."""
        logical = self.logical_pages
        out: dict[int, int] = {}
        for index in np.nonzero(self.table)[0].tolist():
            lpn = index if index < logical else -(index - logical) - 1
            out[lpn] = int(self.table[index])
        return out

    def load_dict(self, versions: dict[int, int]) -> None:
        self.table[:] = 0
        for lpn, version in versions.items():
            self._mv[self._index(lpn)] = version

    def array_equal(self, other: "VersionTable") -> bool:
        return bool(np.array_equal(self.table, other.table))

    def memory_bytes(self) -> int:
        return int(self.table.nbytes)


class FreeBlockSet:
    """Free-block membership of one LUN, backed by ``FlashState.block_free``.

    Holds *local* block ids: O(1) ``len``/``in``/add/remove and
    ascending iteration (``set(lun.free_block_ids)`` for a plain set).
    """

    __slots__ = ("_state", "_base", "_span", "_mv", "_count")

    def __init__(self, state: FlashState, lun_index: LunIndex) -> None:
        self._state = state
        self._base, stop = state.block_range(lun_index)
        self._span = stop - self._base
        self._mv = state.mv_block_free
        self._count = int(
            state.block_free[self._base : self._base + self._span].sum()
        )

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    def __contains__(self, block_id: int) -> bool:
        return 0 <= block_id < self._span and bool(self._mv[self._base + block_id])

    def __iter__(self) -> Iterator[int]:
        free = self._state.block_free[self._base : self._base + self._span]
        return iter(np.nonzero(free)[0].tolist())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FreeBlockSet({sorted(self)!r})"

    def add(self, block_id: int) -> None:
        index = self._base + block_id
        if not self._mv[index]:
            self._mv[index] = 1
            self._count += 1

    def remove(self, block_id: int) -> None:
        index = self._base + block_id
        if not self._mv[index]:
            raise KeyError(block_id)
        self._mv[index] = 0
        self._count -= 1

    def discard(self, block_id: int) -> None:
        index = self._base + block_id
        if self._mv[index]:
            self._mv[index] = 0
            self._count -= 1

    def mask(self) -> np.ndarray:
        """Boolean membership mask over the LUN's local block ids."""
        return self._state.block_free[self._base : self._base + self._span] != 0
