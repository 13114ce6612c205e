"""The shared channel (bus) resource.

Tens of LUNs share each channel; the channel carries command/address
cycles and page data transfers.  EagleTree "supports parallelism among
channels and operation interleaving within a channel" (Section 2.2): with
interleaving enabled the bus is released while a LUN performs its array
operation, so other LUNs on the same channel can be served meanwhile.

A command whose *later* bus phase (a read's data-out, a copyback's second
command cycle) finds the bus busy parks itself in the channel's
continuation queue; continuations are served FIFO and take precedence
over starting new commands, which mirrors controllers draining chip
registers promptly.
"""

from __future__ import annotations

from collections import deque
from typing import Callable


class Channel:
    """One bus shared by the LUNs of a channel."""

    __slots__ = ("channel_id", "busy_until", "continuations", "busy_ns")

    def __init__(self, channel_id: int):
        self.channel_id = channel_id
        self.busy_until = 0
        #: Parked mid-command bus phases: (resume_callback,) entries.
        self.continuations: deque[Callable[[], None]] = deque()
        #: Total occupied time, for utilisation statistics.
        self.busy_ns = 0

    def is_free(self, now_ns: int) -> bool:
        return now_ns >= self.busy_until

    def occupy(self, now_ns: int, duration_ns: int) -> int:
        """Occupy the bus for ``duration_ns`` starting now; returns the
        end time.  The caller must have checked :meth:`is_free`."""
        if now_ns < self.busy_until:
            raise RuntimeError(
                f"channel {self.channel_id} occupied until {self.busy_until}, now {now_ns}"
            )
        self.busy_until = now_ns + duration_ns
        self.busy_ns += duration_ns
        return self.busy_until

    def park_continuation(self, resume: Callable[[], None]) -> None:
        """Queue a mid-command bus phase to run when the bus frees."""
        self.continuations.append(resume)

    @property
    def has_continuations(self) -> bool:
        return bool(self.continuations)

    def utilisation(self, now_ns: int) -> float:
        """Fraction of virtual time the bus has been occupied."""
        if now_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns / now_ns)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Channel({self.channel_id}, busy_until={self.busy_until}, "
            f"continuations={len(self.continuations)})"
        )
