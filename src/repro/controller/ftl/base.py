"""Common machinery shared by the mapping schemes.

The FTL owns the logical-to-physical map, assigns write *versions* (the
``(lpn, version)`` tokens stored in flash pages), invalidates superseded
pages, and arbitrates races:

* Two in-flight writes to the same LPN may complete out of order across
  LUNs; only the highest version may win the mapping, the other page is
  invalidated as an orphan (:meth:`BaseFtl._commit_write`).
* A GC/WL relocation may land after the application has already
  rewritten the page; the relocated copy is then an orphan too
  (:meth:`BaseFtl.on_relocation`).

The logical-IO path is written once, here.  The schemes differ only in
their mapping store, which the path reaches through two hooks,
:meth:`BaseFtl.mapped_address` and :meth:`BaseFtl._remap`: a RAM table
for :class:`~repro.controller.ftl.page_ftl.PageMapFtl`, a demand-paged
table for :class:`~repro.controller.ftl.dftl.DftlFtl` (which runs each
IO once its CMT entry is loaded, and whose translation pages take the
same path under negative pseudo-LPNs), and a block map plus log map for
:class:`~repro.controller.ftl.hybrid.HybridFtl` (which also places its
writes itself).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.events import IoRequest, WriteHints
from repro.hardware.addresses import Lpn, PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.flash import PageContent
from repro.hardware.state import VersionTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.controller.controller import SsdController


class BaseFtl(abc.ABC):
    """Interface and shared state of the flash translation layers."""

    #: True when the FTL owns physical space reclamation itself (the
    #: hybrid FTL's merges); the controller's generic GC and wear
    #: leveling modules stand down in that case.
    manages_physical_space = False

    def __init__(self, controller: "SsdController", pseudo_lpns: int = 0):
        self.controller = controller
        logical_pages = controller.config.logical_pages
        #: Highest version number issued per LPN (flat array table; the
        #: ``pseudo_lpns`` negative metadata pseudo-LPNs -- DFTL's
        #: translation pages -- fold into the tail).
        self._issued_versions = VersionTable(logical_pages, pseudo_lpns)
        #: Highest version number that has won the mapping per LPN.
        self._committed_versions = VersionTable(logical_pages, pseudo_lpns)

    # ------------------------------------------------------------------
    # The scheme's mapping store: the two hooks the shared IO path uses
    # ------------------------------------------------------------------
    def mapped_address(self, lpn: Lpn) -> Optional[PhysicalAddress]:
        """Current physical location of a logical page, if mapped."""
        raise NotImplementedError

    def _remap(self, lpn: Lpn, address: Optional[PhysicalAddress]) -> None:
        """Point ``lpn`` at ``address`` (``None`` unmaps it).  The caller
        has already invalidated the superseded copy."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Logical IO entry points (called by the controller)
    # ------------------------------------------------------------------
    def read(self, io: IoRequest) -> None:
        """Serve a logical read; ends with ``controller.complete_io``."""
        address = self.mapped_address(io.lpn)
        if address is None:
            # Never written (or trimmed): no flash access, reads zeroes.
            io.data = None
            self.controller.complete_quick(io)
            return
        cmd = FlashCommand(
            CommandKind.READ,
            CommandSource.APPLICATION,
            address,
            lpn=io.lpn,
            io=io,
            on_complete=self._read_done,
        )
        self.controller.enqueue_command(cmd)

    def _read_done(self, cmd: FlashCommand) -> None:
        cmd.io.data = cmd.content
        self.controller.complete_io(cmd.io)

    def write(
        self,
        io: Optional[IoRequest],
        lpn: Lpn,
        hints: WriteHints,
        on_done: Optional[Callable[[], None]] = None,
        version: Optional[int] = None,
    ) -> None:
        """Serve a logical write, placed by the controller's allocator.

        ``io`` may be ``None`` for internal writes (write-buffer
        flushes).  ``on_done``, when given, is called once the program
        completed and the mapping decision was made.  ``version`` lets a
        caller that already reserved a version (the write buffer, at
        admission time) pass it through; by default a fresh version is
        drawn here.
        """
        if version is None:
            version = self.next_version(lpn)
        if io is not None:
            io.version = version
        lun_key, stream = self.controller.allocator.place_write(lpn, hints)
        cmd = FlashCommand(
            CommandKind.PROGRAM,
            CommandSource.APPLICATION,
            PhysicalAddress(lun_key[0], lun_key[1], -1, -1),
            lpn=lpn,
            content=(lpn, version),
            stream=stream,
            io=io,
            context=on_done,
            on_complete=self._write_done,
        )
        self.controller.enqueue_command(cmd)

    def _write_done(self, cmd: FlashCommand) -> None:
        lpn, version = cmd.content
        if self._commit_write(lpn, version, cmd.address, self.mapped_address(lpn)):
            self._remap(lpn, cmd.address)
        if cmd.io is not None:
            self.controller.complete_io(cmd.io)
        if cmd.context is not None:
            cmd.context()

    def trim(self, io: IoRequest) -> None:
        """Drop the mapping for a page (the paper's trim IO type)."""
        old_address = self.mapped_address(io.lpn)
        if old_address is not None:
            self._invalidate(old_address)
            self._remap(io.lpn, None)
        self._supersede(io.lpn)
        self.controller.complete_quick(io)

    # ------------------------------------------------------------------
    # GC / WL cooperation
    # ------------------------------------------------------------------
    def on_relocation(
        self,
        content: PageContent,
        old_address: PhysicalAddress,
        new_address: PhysicalAddress,
    ) -> bool:
        """A GC or WL relocation finished: the data at ``old_address``
        now also exists at ``new_address``.

        Updates the mapping if it still referenced ``old_address`` and
        invalidates whichever copy is stale.  Returns True when the new
        copy became live.
        """
        lpn, version = content
        if self.mapped_address(lpn) == old_address:
            self._invalidate(old_address)
            self._remap(lpn, new_address)
            self._journal_commit(lpn, version, new_address)
            return True
        self._invalidate(new_address)
        return False

    # ------------------------------------------------------------------
    # Introspection (tests, invariants, reporting)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def mapped_page_count(self) -> int:
        """Number of logical pages currently mapped."""

    def metadata_page_count(self) -> int:
        """Flash pages holding FTL metadata (translation pages)."""
        return 0

    # ------------------------------------------------------------------
    # Crash consistency (armed only when a power loss is scheduled)
    # ------------------------------------------------------------------
    def snapshot_map(self) -> dict[int, tuple[PhysicalAddress, int]]:
        """The committed logical mapping: ``lpn -> (address, version)``.

        Used by the checkpoint manager (persist the mapping) and by the
        crash coordinator (the ground truth a recovery must reproduce).
        Only positive LPNs -- FTL metadata pages are not logical state.
        """
        raise NotImplementedError

    def rebuild_from_recovery(
        self,
        mapping: dict[int, tuple[PhysicalAddress, int]],
        issued_versions: dict[int, int],
        committed_versions: dict[int, int],
    ) -> None:
        """Install a recovered mapping into a freshly-built FTL at mount.

        ``issued_versions``/``committed_versions`` are carried over from
        the pre-crash device as simulator bookkeeping: version numbers
        stay monotonic across the crash so the in-flight-race arbitration
        in :meth:`_commit_write` keeps working.
        """
        raise NotImplementedError

    def _journal_commit(self, lpn: Lpn, version: int, address: PhysicalAddress) -> None:
        """Record a mapping change in the crash journal, if one is armed.
        Negative (metadata pseudo-)LPNs are not logical state."""
        journal = self.controller.journal
        if journal is not None and lpn >= 0:
            journal.record_write(lpn, version, address)

    def _journal_trim(self, lpn: Lpn) -> None:
        journal = self.controller.journal
        if journal is not None and lpn >= 0:
            journal.record_trim(lpn)

    def _load_version_tables(
        self, issued_versions: dict[int, int], committed_versions: dict[int, int]
    ) -> None:
        """Install carried-over version counters at mount (shared by every
        subclass's :meth:`rebuild_from_recovery`)."""
        self._issued_versions.load_dict(issued_versions)
        self._committed_versions.load_dict(committed_versions)

    def table_memory_bytes(self) -> int:
        """Bytes of the FTL's array-backed tables (device-memory report)."""
        return (
            self._issued_versions.memory_bytes()
            + self._committed_versions.memory_bytes()
            + self._mapping_memory_bytes()
        )

    def _mapping_memory_bytes(self) -> int:
        """Bytes of the scheme-specific mapping structures."""
        return 0

    def expected_live_pages(self) -> int:
        """Live flash pages implied by the mapping state; equals the
        array's live-page count at quiescence (DESIGN.md invariant 3)."""
        return self.mapped_page_count() + self.metadata_page_count()

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def next_version(self, lpn: Lpn) -> int:
        return self._issued_versions.bump(lpn)

    def _invalidate(self, address: PhysicalAddress) -> None:
        lun = self.controller.array.lun_grid[address.channel][address.lun]
        lun.invalidate(address.block, address.page)
        # A LUN stalled at its free-block watermark may have been waiting
        # for its first reclaimable page: re-check the GC trigger.
        self.controller.gc.maybe_trigger((address.channel, address.lun))

    def _commit_write(
        self,
        lpn: Lpn,
        version: int,
        new_address: PhysicalAddress,
        old_address: Optional[PhysicalAddress],
    ) -> bool:
        """Decide whether a completed program wins the mapping.

        Returns True (caller updates its map to ``new_address`` after the
        previous location was invalidated here) or False (the program was
        superseded while in flight; its page was invalidated as orphan).
        """
        if version > self._committed_versions.get(lpn, 0):
            self._committed_versions.set(lpn, version)
            if old_address is not None:
                self._invalidate(old_address)
            self._journal_commit(lpn, version, new_address)
            return True
        self._invalidate(new_address)
        return False

    def _supersede(self, lpn: Lpn) -> None:
        """Trim support: mark every in-flight write of ``lpn`` stale."""
        self._committed_versions.set(lpn, self._issued_versions.get(lpn, 0))
        self._journal_trim(lpn)
