"""Synthetic workload threads: the uFLIP-style building blocks.

These cover the workload vocabulary the paper's experiment suite needs:
sequential and random readers/writers over configurable address regions,
uniform or zipfian skew, configurable asynchrony (window depth), and a
mixed read/write thread.  They double as the *preparation threads* of
Section 2.3 ("thread(s) that write over the entire logical address space
sequentially and/or randomly") through the two ``precondition_*``
helpers.

Every thread accepts an optional ``hint_fn(io_type, lpn) -> dict`` so
open-interface experiments can attach priority / temperature / locality
hints without subclassing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.events import IoType, WriteHints
from repro.host.operating_system import ThreadContext
from repro.workloads.threads import GeneratorThread, Op

HintFn = Callable[[IoType, int], Optional[WriteHints]]


class _RegionThread(GeneratorThread):
    """Shared plumbing: an address region, an op budget and hints."""

    def __init__(
        self,
        name: str,
        count: int,
        region: Optional[tuple[int, int]] = None,
        depth: int = 4,
        hint_fn: Optional[HintFn] = None,
    ):
        super().__init__(name, depth=depth)
        if count < 0:
            raise ValueError("count must be >= 0")
        self.count = count
        self.region = region
        self.hint_fn = hint_fn
        self.issued_ops = 0
        #: The context the region was last validated against, and the
        #: bounds: one check per run, not one per IO.
        self._bounds_ctx: Optional[ThreadContext] = None
        self._bounds = (0, 0)

    def _region(self, ctx: ThreadContext) -> tuple[int, int]:
        if ctx is self._bounds_ctx:
            return self._bounds
        if self.region is not None:
            low, high = self.region
        else:
            low, high = 0, ctx.logical_pages
        if not 0 <= low < high <= ctx.logical_pages:
            raise ValueError(f"region ({low}, {high}) outside logical space")
        self._bounds_ctx, self._bounds = ctx, (low, high)
        return low, high

    def _emit(self, io_type: IoType, lpn: int) -> Op:
        self.issued_ops += 1
        hint_fn = self.hint_fn
        return (io_type, lpn, None if hint_fn is None else hint_fn(io_type, lpn))


class SequentialWriterThread(_RegionThread):
    """Writes the region sequentially, wrapping around until ``count``
    operations were issued."""

    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if self.issued_ops >= self.count:
            return None
        low, high = self._region(ctx)
        lpn = low + self.issued_ops % (high - low)
        return self._emit(IoType.WRITE, lpn)


class SequentialReaderThread(_RegionThread):
    """Reads the region sequentially, wrapping until ``count`` ops."""

    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if self.issued_ops >= self.count:
            return None
        low, high = self._region(ctx)
        lpn = low + self.issued_ops % (high - low)
        return self._emit(IoType.READ, lpn)


class _SkewedThread(_RegionThread):
    """Shared random-address drawing with optional zipf skew."""

    def __init__(self, *args, zipf_theta: Optional[float] = None, **kwargs):
        super().__init__(*args, **kwargs)
        self.zipf_theta = zipf_theta

    def _draw_lpn(self, ctx: ThreadContext) -> int:
        low, high = self._region(ctx)
        rng = ctx.rng("addresses")
        span = high - low
        if self.zipf_theta is None:
            return low + rng.randrange(span)
        return low + rng.zipf_index(span, self.zipf_theta)


class RandomWriterThread(_SkewedThread):
    """Writes uniformly random (or zipf-skewed) pages in the region."""

    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if self.issued_ops >= self.count:
            return None
        return self._emit(IoType.WRITE, self._draw_lpn(ctx))


class RandomReaderThread(_SkewedThread):
    """Reads uniformly random (or zipf-skewed) pages in the region."""

    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if self.issued_ops >= self.count:
            return None
        return self._emit(IoType.READ, self._draw_lpn(ctx))


class MixedWorkloadThread(_SkewedThread):
    """Interleaves reads and writes with a configurable read fraction."""

    def __init__(self, *args, read_fraction: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        self.read_fraction = read_fraction

    def next_io(self, ctx: ThreadContext) -> Optional[Op]:
        if self.issued_ops >= self.count:
            return None
        is_read = ctx.rng("mix").random() < self.read_fraction
        io_type = IoType.READ if is_read else IoType.WRITE
        return self._emit(io_type, self._draw_lpn(ctx))


def precondition_sequential(
    logical_pages: int, name: str = "precondition-seq", depth: int = 32
) -> SequentialWriterThread:
    """A preparation thread writing the whole logical space once,
    sequentially (brings the device to the "filled sequentially" state
    of the uFLIP methodology)."""
    return SequentialWriterThread(
        name, count=logical_pages, region=(0, logical_pages), depth=depth
    )


def precondition_random(
    logical_pages: int,
    overwrite_factor: float = 1.0,
    name: str = "precondition-rand",
    depth: int = 32,
) -> RandomWriterThread:
    """A preparation thread overwriting randomly (puts the device into
    steady state: fragmented blocks, working garbage collector)."""
    count = int(logical_pages * overwrite_factor)
    return RandomWriterThread(name, count=count, region=(0, logical_pages), depth=depth)
