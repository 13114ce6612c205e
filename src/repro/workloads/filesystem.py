"""A thread simulating the IO behaviour of a file system.

The paper mentions "threads simulating the behavior of a file system" as
an example of the framework's expressiveness.  This thread maintains an
in-memory model of a tiny extent-based file system inside its address
region:

* a metadata area at the front of the region (inode/bitmap pages that
  get rewritten on every namespace operation -- classic hot data);
* a data area managed by a next-fit page allocator.

Each *operation* is one of create / append / overwrite / delete, drawn
with configurable weights.  Creates and appends allocate pages and write
them plus a metadata page; overwrites rewrite existing file pages;
deletes trim the file's pages and rewrite metadata.  The result is a
realistic mix: hot metadata rewrites, cold bulk data, and trims.
"""

from __future__ import annotations

from typing import Optional

from repro.core.events import IoType, WriteHints
from repro.host.operating_system import ThreadContext
from repro.workloads.threads import GeneratorThread, Op


class FileSystemThread(GeneratorThread):
    """Replays a random sequence of file-system operations."""

    #: Relative weights of (create, append, overwrite, delete).
    DEFAULT_WEIGHTS = (0.3, 0.25, 0.3, 0.15)

    def __init__(
        self,
        name: str,
        operations: int,
        region: Optional[tuple[int, int]] = None,
        metadata_pages: int = 8,
        max_file_pages: int = 16,
        weights: tuple[float, float, float, float] = DEFAULT_WEIGHTS,
        depth: int = 4,
        hint_metadata_hot: bool = False,
    ):
        super().__init__(name, depth=depth)
        if operations < 0:
            raise ValueError("operations must be >= 0")
        if metadata_pages < 1:
            raise ValueError("metadata_pages must be >= 1")
        self.operations = operations
        self.region = region
        self.metadata_pages = metadata_pages
        self.max_file_pages = max_file_pages
        self.weights = weights
        #: Attach temperature hints: metadata hot, file data cold.
        self.hint_metadata_hot = hint_metadata_hot
        self._initialised = False
        self._ops_done = 0
        self._queue: list[Op] = []
        #: file id -> list of data lpns.
        self._files: dict[int, list[int]] = {}
        self._next_file_id = 0
        self._free: list[int] = []
        self._meta_low = 0

    # ------------------------------------------------------------------
    # Lazy initialisation (needs ctx for the logical space size)
    # ------------------------------------------------------------------
    def _setup(self, ctx: ThreadContext) -> None:
        low, high = self.region if self.region else (0, ctx.logical_pages)
        if high - low < self.metadata_pages + self.max_file_pages:
            raise ValueError("file-system region too small")
        self._meta_low = low
        self._free = list(range(low + self.metadata_pages, high))
        self._initialised = True

    # ------------------------------------------------------------------
    # Operation generation
    # ------------------------------------------------------------------
    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if not self._initialised:
            self._setup(ctx)
        if self._queue:
            return self._queue.pop(0)
        if self._ops_done >= self.operations:
            return None
        self._ops_done += 1
        self._generate_operation(ctx)
        if not self._queue:  # operation degenerated (e.g. no space)
            return self.next_io(ctx)
        return self._queue.pop(0)

    def _generate_operation(self, ctx: ThreadContext) -> None:
        rng = ctx.rng("fs")
        choice = rng.random()
        create_w, append_w, overwrite_w, _delete_w = self.weights
        total = sum(self.weights)
        if choice < create_w / total or not self._files:
            self._op_create(ctx)
        elif choice < (create_w + append_w) / total:
            self._op_append(ctx)
        elif choice < (create_w + append_w + overwrite_w) / total:
            self._op_overwrite(ctx)
        else:
            self._op_delete(ctx)

    def _op_create(self, ctx: ThreadContext) -> None:
        rng = ctx.rng("fs")
        size = rng.randint(1, self.max_file_pages)
        if len(self._free) < size:
            if self._files:
                self._op_delete(ctx)
            return
        pages = [self._free.pop(0) for _ in range(size)]
        file_id = self._next_file_id
        self._next_file_id += 1
        self._files[file_id] = pages
        for lpn in pages:
            self._queue.append((IoType.WRITE, lpn, self._data_hints()))
        self._touch_metadata(ctx)

    def _op_append(self, ctx: ThreadContext) -> None:
        rng = ctx.rng("fs")
        file_id = rng.choice(sorted(self._files))
        if not self._free or len(self._files[file_id]) >= self.max_file_pages:
            return
        lpn = self._free.pop(0)
        self._files[file_id].append(lpn)
        self._queue.append((IoType.WRITE, lpn, self._data_hints()))
        self._touch_metadata(ctx)

    def _op_overwrite(self, ctx: ThreadContext) -> None:
        rng = ctx.rng("fs")
        file_id = rng.choice(sorted(self._files))
        pages = self._files[file_id]
        lpn = rng.choice(pages)
        self._queue.append((IoType.WRITE, lpn, self._data_hints()))

    def _op_delete(self, ctx: ThreadContext) -> None:
        rng = ctx.rng("fs")
        file_id = rng.choice(sorted(self._files))
        pages = self._files.pop(file_id)
        for lpn in pages:
            self._queue.append((IoType.TRIM, lpn, None))
        self._free.extend(pages)
        self._touch_metadata(ctx)

    def _touch_metadata(self, ctx: ThreadContext) -> None:
        rng = ctx.rng("fs")
        lpn = self._meta_low + rng.randrange(self.metadata_pages)
        self._queue.append((IoType.WRITE, lpn, self._metadata_hints()))

    def _data_hints(self) -> Optional[WriteHints]:
        if self.hint_metadata_hot:
            return {"temperature": "cold"}
        return None

    def _metadata_hints(self) -> Optional[WriteHints]:
        if self.hint_metadata_hot:
            return {"temperature": "hot"}
        return None
