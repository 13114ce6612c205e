"""Page-level mapping kept entirely in controller RAM.

The simplest and most flexible scheme the paper considers: every logical
page maps directly to a physical page, lookup is free (RAM), and writes
can be bound to any LUN.  The cost is RAM: 8 bytes per logical page,
accounted against the controller RAM budget through the memory manager.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.controller.ftl.base import BaseFtl
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.state import MappingTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


class PageMapFtl(BaseFtl):
    """Full page-level map in RAM."""

    ENTRY_BYTES = 8

    def __init__(self, controller: "SsdController"):
        super().__init__(controller)
        self._map = MappingTable(controller.config.logical_pages, controller.array.codec)
        controller.memory.allocate_ram(
            "page map", controller.config.logical_pages * self.ENTRY_BYTES
        )
        # The mapping hooks are the table's own methods, not wrappers, so
        # the shared IO path costs no extra call per lookup or update.
        self.mapped_address = self._map.get
        self._remap = self._map.set

    # ------------------------------------------------------------------
    # Crash consistency
    # ------------------------------------------------------------------
    def snapshot_map(self) -> dict[int, tuple[PhysicalAddress, int]]:
        return {
            lpn: (address, self._committed_versions.get(lpn, 0))
            for lpn, address in self._map.items_sorted()
        }

    def rebuild_from_recovery(
        self,
        mapping: dict[int, tuple[PhysicalAddress, int]],
        issued_versions: dict[int, int],
        committed_versions: dict[int, int],
    ) -> None:
        self._map.clear()
        for lpn in sorted(mapping):
            self._map.set(lpn, mapping[lpn][0])
        self._load_version_tables(issued_versions, committed_versions)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def mapped_page_count(self) -> int:
        return len(self._map)

    def _mapping_memory_bytes(self) -> int:
        return self._map.memory_bytes()
