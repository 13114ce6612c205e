"""The flash command vocabulary.

Flash commands are what the SSD controller's scheduler queues and the
array executes.  Each command is tagged with its *source* -- the paper's
scheduler framework differentiates "IOs from various sources (e.g.
application, garbage-collection, mapping, etc.), of various types (e.g.
read, write, erase, copy-back) [...] waiting in the queue for different
lengths of time" -- exactly the attributes carried here.
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional

from repro.hardware.addresses import Lpn, PhysicalAddress
from repro.hardware.flash import PageContent


class CommandKind(enum.Enum):
    READ = "READ"
    PROGRAM = "PROGRAM"
    ERASE = "ERASE"
    #: Internal data move: read + program inside one LUN, no bus transfer.
    COPYBACK = "COPYBACK"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CommandOutcome(enum.Enum):
    """How a flash command finished (reliability subsystem).

    Without the reliability subsystem every command succeeds and
    ``FlashCommand.outcome`` stays ``SUCCESS``.  With it, the array draws
    read bit errors and program/erase failures and reports them here; the
    controller reacts (retry ladder, parity rebuild, block retirement).
    """

    SUCCESS = "SUCCESS"
    #: Read had bit errors, all corrected by ECC.
    CORRECTED = "CORRECTED"
    #: Read had more bit errors than the ECC can correct.
    UNCORRECTABLE = "UNCORRECTABLE"
    #: Read was uncorrectable but reconstructed from channel parity.
    REBUILT = "REBUILT"
    #: Program operation reported a failure status.
    PROGRAM_FAIL = "PROGRAM_FAIL"
    #: Erase operation reported a failure status.
    ERASE_FAIL = "ERASE_FAIL"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CommandSource(enum.Enum):
    APPLICATION = "APPLICATION"
    GC = "GC"
    WEAR_LEVELING = "WEAR_LEVELING"
    #: DFTL translation-page traffic.
    MAPPING = "MAPPING"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# simlint: disable=SIM006 -- ids break scheduler ties; only their relative
# order within one run matters, and that is deterministic.
_command_ids = itertools.count(1)


class FlashCommand:
    """One operation for the flash array.

    Addressing rules:

    * READ / ERASE: ``address`` is fully bound at enqueue time.
    * PROGRAM: only the target LUN is bound at enqueue (``address.block``
      and ``address.page`` are -1); the allocator binds the exact page
      when the command starts executing, which guarantees sequential
      programming within blocks regardless of scheduling order.
    * COPYBACK: ``address`` is the source page; ``target_address`` is
      bound at start, inside the same LUN.

    ``on_complete`` is invoked by the array exactly once, when the last
    phase of the command finishes.
    """

    __slots__ = (
        "id",
        "kind",
        "source",
        "address",
        "target_address",
        "lpn",
        "content",
        "enqueue_time",
        "start_time",
        "complete_time",
        "deadline",
        "stream",
        "on_complete",
        "io",
        "context",
        "outcome",
        "retry_index",
        "aborted",
    )

    def __init__(
        self,
        kind: CommandKind,
        source: CommandSource,
        address: PhysicalAddress,
        lpn: Optional[Lpn] = None,
        content: Optional[PageContent] = None,
        deadline: Optional[int] = None,
        stream: str = "default",
        on_complete: Optional[Callable[["FlashCommand"], None]] = None,
        io: Any = None,
        context: Any = None,
    ):
        self.id = next(_command_ids)
        self.kind = kind
        self.source = source
        self.address = address
        self.target_address: Optional[PhysicalAddress] = None
        self.lpn = lpn
        self.content = content
        self.enqueue_time: Optional[int] = None
        self.start_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        #: Absolute virtual time by which the command should finish.
        self.deadline = deadline
        #: Allocation stream name (e.g. "app", "app_hot", "gc", "map").
        self.stream = stream
        self.on_complete = on_complete
        #: The logical IO this command serves, if any.
        self.io = io
        #: Free slot for the originating module (e.g. a GC job).
        self.context = context
        #: How the command finished; set by the array's error model.
        self.outcome: CommandOutcome = CommandOutcome.SUCCESS
        #: Read-retry ladder position: 0 for the first attempt, then 1..N
        #: for re-issued reads (scales the effective RBER down).
        self.retry_index = 0
        #: Aborted by the overload governor before execution (command
        #: timeout); the command never reaches the array and its
        #: ``on_complete`` never fires.
        self.aborted = False

    @property
    def lun_key(self) -> tuple[int, int]:
        """The (channel, lun) the command is bound to."""
        return (self.address.channel, self.address.lun)

    def age(self, now_ns: int) -> int:
        """Time spent queued, used by ageing/starvation policies."""
        if self.enqueue_time is None:
            return 0
        return now_ns - self.enqueue_time

    def overdue(self, now_ns: int) -> bool:
        return self.deadline is not None and now_ns > self.deadline

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        lpn = f" lpn={self.lpn}" if self.lpn is not None else ""
        return (
            f"FlashCommand(#{self.id} {self.kind} {self.source}"
            f" {self.address}{lpn})"
        )
