"""DFTL: demand-based page mapping (Gupta et al., ASPLOS 2009).

Only a *cached mapping table* (CMT) of recently used logical-to-physical
entries is kept in RAM; the full map lives in *translation pages* on
flash, indexed by an in-RAM global translation directory (GTD).

Behaviour reproduced here:

* CMT miss -> a MAPPING read of the translation page, coalesced across
  concurrent misses for the same translation page.
* Dirty CMT eviction -> read-modify-write of the translation page
  (a MAPPING read + MAPPING program); with *batch eviction* all dirty
  entries of the same translation page are persisted together.
* Translation pages are ordinary flash pages: they are written through
  the allocator (stream ``map``), are garbage-collected like data, and
  relocations update the GTD.

Bookkeeping note: the authoritative mapping content is tracked in shadow
dictionaries updated synchronously, while the MAPPING flash commands
model the *timing and traffic* of the scheme.  No crash recovery is
simulated, so this loses no fidelity for the performance questions the
paper studies.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.controller.ftl.base import BaseFtl
from repro.core.events import IoRequest, WriteHints
from repro.hardware.addresses import Lpn, PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.state import MappingTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


class _CmtEntry:
    __slots__ = ("ppn", "dirty")

    def __init__(self, ppn: Optional[PhysicalAddress], dirty: bool):
        self.ppn = ppn
        self.dirty = dirty


class DftlFtl(BaseFtl):
    """Demand-paged page mapping with translation pages on flash."""

    def __init__(self, controller: "SsdController"):
        config = controller.config
        dftl = config.controller.dftl
        self.entry_bytes = dftl.entry_bytes
        self.entries_per_tp = max(1, config.geometry.page_size_bytes // self.entry_bytes)
        self.num_tps = -(-config.logical_pages // self.entries_per_tp)
        # Translation page ``tp`` is versioned as pseudo-LPN ``-(tp + 1)``.
        super().__init__(controller, self.num_tps)
        self.batch_eviction = dftl.batch_eviction

        gtd_bytes = self.num_tps * self.entry_bytes
        controller.memory.allocate_ram("dftl gtd", gtd_bytes)
        if dftl.cmt_entries is not None:
            self.cmt_capacity = dftl.cmt_entries
        else:
            self.cmt_capacity = max(
                1, controller.memory.ram_available // self.entry_bytes
            )
        self.cmt_capacity = min(self.cmt_capacity, config.logical_pages)
        if self.cmt_capacity < 1:
            raise ValueError("DFTL CMT capacity must be at least 1 entry")
        controller.memory.allocate_ram("dftl cmt", self.cmt_capacity * self.entry_bytes)

        #: LRU-ordered cached mapping table (MRU at the end).
        self.cmt: OrderedDict[int, _CmtEntry] = OrderedDict()
        #: Mapping content persisted in on-flash translation pages.
        self.persisted = MappingTable(config.logical_pages, controller.array.codec)
        #: GTD: current flash location of each translation page.
        self.tp_locations = MappingTable(self.num_tps, controller.array.codec)
        #: Coalesced outstanding fetches: tp -> [(lpn, continuation)].
        self._pending_fetches: dict[int, list[tuple[int, Callable[[], None]]]] = {}

        self.cmt_hits = 0
        self.cmt_misses = 0
        self.evictions = 0
        self.batched_flush_entries = 0
        #: Translation-page reads issued for CMT misses (excludes the
        #: read half of eviction read-modify-writes).
        self.tp_fetch_reads = 0

    # ------------------------------------------------------------------
    # Logical IO: the shared path, run once the LPN's CMT entry is loaded
    # ------------------------------------------------------------------
    def read(self, io: IoRequest) -> None:
        self._with_entry(io.lpn, partial(super().read, io))

    def write(
        self,
        io: Optional[IoRequest],
        lpn: Lpn,
        hints: WriteHints,
        on_done: Optional[Callable[[], None]] = None,
        version: Optional[int] = None,
    ) -> None:
        self._with_entry(lpn, partial(super().write, io, lpn, hints, on_done, version))

    def trim(self, io: IoRequest) -> None:
        self._with_entry(io.lpn, partial(super().trim, io))

    # ------------------------------------------------------------------
    # CMT management
    # ------------------------------------------------------------------
    def _with_entry(self, lpn: Lpn, continuation: Callable[[], None]) -> None:
        """Run ``continuation`` once the mapping entry for ``lpn`` is in
        the CMT, fetching its translation page first if needed."""
        if lpn in self.cmt:
            self.cmt.move_to_end(lpn)
            self.cmt_hits += 1
            continuation()
            return
        self.cmt_misses += 1
        tp = lpn // self.entries_per_tp
        waiters = self._pending_fetches.get(tp)
        if waiters is not None:
            waiters.append((lpn, continuation))
            return
        self._pending_fetches[tp] = [(lpn, continuation)]
        tp_address = self.tp_locations.get(tp)
        if tp_address is None:
            # Translation page never written: resolve without flash IO,
            # but still asynchronously so callers see uniform ordering.
            self.controller.sim.post(0, self._fetch_done, tp)
            return
        self.tp_fetch_reads += 1
        cmd = FlashCommand(
            CommandKind.READ,
            CommandSource.MAPPING,
            tp_address,
            lpn=self._tp_pseudo_lpn(tp),
            on_complete=lambda c, tp=tp: self._fetch_done(tp),
        )
        self.controller.enqueue_command(cmd)

    def _fetch_done(self, tp: int) -> None:
        waiters = self._pending_fetches.pop(tp, [])
        for lpn, continuation in waiters:
            if lpn not in self.cmt:
                self._ensure_capacity()
                self.cmt[lpn] = _CmtEntry(self.persisted.get(lpn), dirty=False)
            else:
                self.cmt.move_to_end(lpn)
            continuation()

    # The CMT never holds a negative key, so a translation page's
    # pseudo-LPN always misses it and reaches the GTD.
    def mapped_address(self, lpn: Lpn) -> Optional[PhysicalAddress]:
        entry = self.cmt.get(lpn)
        if entry is not None:
            return entry.ppn
        if lpn < 0:
            return self.tp_locations.get(-lpn - 1)
        return self.persisted.get(lpn)

    def _remap(self, lpn: Lpn, ppn: Optional[PhysicalAddress]) -> None:
        """Point ``lpn`` at ``ppn``, dirtying (and if needed re-inserting)
        its CMT entry; a translation page's pseudo-LPN moves its GTD
        entry instead."""
        entry = self.cmt.get(lpn)
        if entry is not None:
            entry.ppn = ppn
            entry.dirty = True
            self.cmt.move_to_end(lpn)
            return
        if lpn < 0:
            self.tp_locations.set(-lpn - 1, ppn)
            return
        self._ensure_capacity()
        self.cmt[lpn] = _CmtEntry(ppn, dirty=True)

    def _ensure_capacity(self) -> None:
        while len(self.cmt) >= self.cmt_capacity:
            victim_lpn, entry = self.cmt.popitem(last=False)
            self.evictions += 1
            if entry.dirty:
                self._flush(victim_lpn, entry)

    def _flush(self, lpn: Lpn, entry: _CmtEntry) -> None:
        """Persist a dirty entry (plus, with batch eviction, every dirty
        sibling of the same translation page) and charge the RMW cost."""
        tp = lpn // self.entries_per_tp
        self.persisted.set(lpn, entry.ppn)
        if self.batch_eviction:
            low = tp * self.entries_per_tp
            high = low + self.entries_per_tp
            cmt = self.cmt
            # Walk the smaller side, the translation page's LPN range or
            # the CMT: persisting distinct LPNs commutes, so either order
            # persists the same map.
            if high - low <= len(cmt):
                siblings: Iterable[int] = range(low, high)
            else:
                siblings = [key for key in cmt if low <= key < high]
            for sibling in siblings:
                sibling_entry = cmt.get(sibling)
                if sibling_entry is not None and sibling_entry.dirty:
                    self.persisted.set(sibling, sibling_entry.ppn)
                    sibling_entry.dirty = False
                    self.batched_flush_entries += 1
        old_tp_address = self.tp_locations.get(tp)
        if old_tp_address is not None:
            read_cmd = FlashCommand(
                CommandKind.READ,
                CommandSource.MAPPING,
                old_tp_address,
                lpn=self._tp_pseudo_lpn(tp),
                on_complete=lambda c, tp=tp: self._write_tp(tp),
            )
            self.controller.enqueue_command(read_cmd)
        else:
            self._write_tp(tp)

    def _write_tp(self, tp: int) -> None:
        pseudo = self._tp_pseudo_lpn(tp)
        version = self.next_version(pseudo)
        lun_key = self.controller.allocator.place_internal("map")
        cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.MAPPING,
            PhysicalAddress(lun_key[0], lun_key[1], -1, -1),
            lpn=pseudo,
            content=(pseudo, version),
            stream="map",
            on_complete=self._write_done,
        )
        self.controller.enqueue_command(cmd)

    # ------------------------------------------------------------------
    # Crash consistency
    # ------------------------------------------------------------------
    def snapshot_map(self) -> dict[int, tuple[PhysicalAddress, int]]:
        # The committed logical view: CMT entries overlay the persisted
        # table (a dirty CMT entry is newer than its flash copy -- the
        # data page itself is durable even when the mapping entry is not,
        # which is exactly what recovery reconstructs).
        snapshot: dict[int, tuple[PhysicalAddress, int]] = {}
        for lpn in sorted(set(self.cmt) | set(self.persisted.mapped_lpns().tolist())):
            address = self.mapped_address(lpn)
            if address is not None:
                snapshot[lpn] = (address, self._committed_versions.get(lpn, 0))
        return snapshot

    def rebuild_from_recovery(
        self,
        mapping: dict[int, tuple[PhysicalAddress, int]],
        issued_versions: dict[int, int],
        committed_versions: dict[int, int],
    ) -> None:
        # Post-mount state: the whole recovered map counts as persisted
        # (the mount wrote it back conceptually), the CMT starts cold --
        # the post-crash miss storm is an observable of E19.  The old
        # translation pages are never referenced again; the mount cleanup
        # erased their blocks, and ``tp_locations`` stays empty until
        # evictions write fresh ones.
        self.persisted.clear()
        for lpn in sorted(mapping):
            self.persisted.set(lpn, mapping[lpn][0])
        self.tp_locations.clear()
        self.cmt = OrderedDict()
        self._load_version_tables(issued_versions, committed_versions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mapped_page_count(self) -> int:
        count = sum(
            1 for lpn, entry in self.cmt.items() if entry.ppn is not None
        )
        count += len(self.persisted) - sum(
            1 for lpn in self.cmt if lpn in self.persisted
        )
        return count

    def metadata_page_count(self) -> int:
        return len(self.tp_locations)

    def _mapping_memory_bytes(self) -> int:
        return self.persisted.memory_bytes() + self.tp_locations.memory_bytes()

    def hit_ratio(self) -> float:
        total = self.cmt_hits + self.cmt_misses
        if total == 0:
            return 0.0
        return self.cmt_hits / total

    @staticmethod
    def _tp_pseudo_lpn(tp: int) -> int:
        return -(tp + 1)
