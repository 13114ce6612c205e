"""The SSD-internal IO scheduling framework.

Paper Section 2.2: "Given the state of the flash chip array and a queue
of pending IOs from various sources [...], of various types [...], and
that have been waiting in the queue for different lengths of time, which
IO should be executed next and where?"

The *where* for writes is delegated to the allocator (late page binding);
this module answers the *which* and *when*.  It maintains one pending
queue per LUN and, every time a channel or LUN frees, dispatches the
best eligible command according to the configured policy.  A command
enqueued while no other LUN is idle with queued work starts at once if
it is eligible and its LUN and channel are free: a dispatch scan would
find only it.

* ``FIFO``     -- oldest first.
* ``PRIORITY`` -- static (source, type) priorities with optional
  open-interface priority hints and an anti-starvation age threshold.
* ``DEADLINE`` -- earliest deadline first, overdue commands ahead.
* ``FAIR``     -- round-robin over command sources.

Eligibility rules keep the scheduler safe regardless of policy: an erase
only runs once its block holds no live data and no in-flight reads, and a
program only runs when the allocator can bind a page for it.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Iterator, Optional

from repro.core.config import SchedulerConfig, SsdSchedulerPolicy
from repro.core.engine import Simulator
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.hardware.flash import Lun

#: Sources rotation order used by the FAIR policy.
_FAIR_ORDER = (
    CommandSource.APPLICATION,
    CommandSource.MAPPING,
    CommandSource.GC,
    CommandSource.WEAR_LEVELING,
)

#: One LUN's pending commands keyed by ``cmd.id``; insertion order is
#: enqueue order.  Dispatch and abort delete from anywhere in O(1).  An
#: ``OrderedDict`` rather than a ``dict``: a drained dict keeps its
#: deleted slots until the next insert resizes it, so every walk from
#: the head re-skips them and a deep FIFO drain goes quadratic; the
#: linked list behind ``OrderedDict`` reaches the head in O(1).
LunQueue = OrderedDict[int, FlashCommand]


class SsdScheduler:
    """Per-LUN pending queues plus the dispatch loop ("pump")."""

    def __init__(
        self,
        sim: Simulator,
        array: SsdArray,
        config: SchedulerConfig,
        can_bind: Callable[[FlashCommand], bool],
    ):
        self.sim = sim
        self.array = array
        self.config = config
        policy = config.policy
        #: Only the DEADLINE policy gives commands a deadline.
        self._deadline_policy = policy is SsdSchedulerPolicy.DEADLINE
        #: The policy's pick within one LUN queue, bound once and called
        #: as ``(queue, lun_key)``.
        self._select_in: Callable[[LunQueue, tuple[int, int]], Optional[FlashCommand]] = {
            SsdSchedulerPolicy.FIFO: self._select_fifo,
            SsdSchedulerPolicy.FAIR: self._select_fair,
        }.get(policy, self._select_min)
        #: Allocator predicate: can a PROGRAM/COPYBACK bind a page now?
        self.can_bind = can_bind
        self.queues: dict[tuple[int, int], LunQueue] = {
            key: OrderedDict() for key in array.luns
        }
        #: Per channel, the ``(lun, queue, lun_key)`` of every LUN,
        #: indexed by LUN id: the dispatch scan walks these directly.
        self._slots: list[list[tuple[Lun, LunQueue, tuple[int, int]]]] = [
            [(lun, self.queues[lun.key], lun.key) for lun in luns] for luns in array.lun_grid
        ]
        #: Queued commands in total, kept in step with the queues by
        #: enqueue, dispatch and abort.
        self._pending = 0
        #: Deepest any LUN queue has ever been (pure observer).
        self._queue_high_watermark = 0
        #: Per channel and in total, the LUNs that are idle and hold a
        #: queued command: the only LUNs a dispatch scan can start on.
        #: Kept by enqueue, ``_take``, dispatch and :meth:`on_lun_idle`.
        self._ready = [0] * len(array.channels)
        self._ready_total = 0
        #: Per-channel rotation pointer for LUN tie-breaking.
        self._lun_rotation = [0] * len(array.channels)
        #: LUNs per channel: the modulus of the LUN rotation.
        self._luns_per_channel = len(array.lun_grid[0])
        #: Per-LUN rotation pointer over sources, for the FAIR policy.
        self._fair_rotation: dict[tuple[int, int], int] = {key: 0 for key in array.luns}
        self._pumping = False

    # ------------------------------------------------------------------
    # Queue interface
    # ------------------------------------------------------------------
    def enqueue(self, cmd: FlashCommand) -> None:
        """Add a command to its LUN's pending queue and try to dispatch.

        When no pump is running, no LUN is idle with queued work and
        ``cmd``'s LUN is idle, a pump would start ``cmd`` or nothing,
        whatever the policy: the one candidate is the best.  Then ``cmd``
        starts here, never queued, if its channel is free and it is
        eligible (:meth:`_start_alone`); otherwise it is queued and no
        pump runs.
        """
        now = self.sim.now
        if cmd.deadline is None and self._deadline_policy:
            cmd.deadline = self.deadline_for(cmd.kind, now)
        cmd.enqueue_time = now
        address = cmd.address
        lun, queue, _ = self._slots[address.channel][address.lun]
        idle = False
        if not queue and lun.current_command is None:
            idle = not self._ready_total and not self._pumping
            if idle:
                channel = self.array.channels[address.channel]
                if (
                    now >= channel.busy_until
                    and not channel.continuations
                    and self._eligible(cmd)
                ):
                    self._start_alone(lun, cmd)
                    return
            self._ready[address.channel] += 1
            self._ready_total += 1
        queue[cmd.id] = cmd
        if len(queue) > self._queue_high_watermark:
            self._queue_high_watermark = len(queue)
        self._pending += 1
        if not idle:
            self.pump()

    def queue_depth(self, lun_key: tuple[int, int]) -> int:
        """Pending commands bound to a LUN (used by LEAST_QUEUED
        allocation and by fairness metrics)."""
        return len(self.queues[lun_key])

    def queued(self, lun_key: tuple[int, int]) -> Iterator[FlashCommand]:
        """The commands queued on a LUN, in enqueue order."""
        return iter(self.queues[lun_key].values())

    def total_pending(self) -> int:
        return self._pending

    def abort(self, cmd: FlashCommand) -> None:
        """Remove a still-queued command (overload timeout abort).  The
        caller owns the flash-state cleanup (in-flight read accounting)
        and the IO completion."""
        address = cmd.address
        lun, queue, _ = self._slots[address.channel][address.lun]
        self._take(lun, queue, cmd)

    def _take(self, lun: Lun, queue: LunQueue, cmd: FlashCommand) -> None:
        try:
            del queue[cmd.id]
        except KeyError:
            raise ValueError(f"command #{cmd.id} removed twice") from None
        self._pending -= 1
        if not queue and lun.current_command is None:
            self._ready[lun.channel_id] -= 1
            self._ready_total -= 1

    def on_lun_idle(self, lun: Lun) -> None:
        """Array hook: ``lun`` finished its command and is idle again."""
        _, queue, _ = self._slots[lun.channel_id][lun.lun_id]
        if queue:
            self._ready[lun.channel_id] += 1
            self._ready_total += 1

    def max_queue_high_watermark(self) -> int:
        """Deepest any LUN queue has ever been (overload statistics)."""
        return self._queue_high_watermark

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def pump(self) -> None:
        """Dispatch eligible commands until no more progress is possible.

        Called on every resource-free notification from the array, and
        by :meth:`enqueue` unless the device had no other work to start.
        Re-entrant calls collapse into the outer loop.
        Without an idle LUN holding queued work nothing can start, so it
        returns at once; a channel without one is skipped without a
        scan.  The others are re-scanned until a full pass starts
        nothing, because a start changes the device and allocator state
        that eligibility on other channels depends on (``can_bind`` for
        programs).
        """
        if self._pumping or not self._ready_total:
            return
        self._pumping = True
        try:
            now = self.sim.now
            ready = self._ready
            progress = True
            while progress:
                progress = False
                for channel in self.array.channels:
                    if (
                        not ready[channel.channel_id]
                        or now < channel.busy_until
                        or channel.continuations
                    ):
                        continue
                    if self._dispatch_on_channel(channel.channel_id):
                        progress = True
        finally:
            self._pumping = False

    def _dispatch_on_channel(self, channel_id: int) -> bool:
        """Start the best eligible command on one free channel."""
        slots = self._slots[channel_id]
        luns_per_channel = len(slots)
        rotation = self._lun_rotation[channel_id]
        select = self._select_in
        cmd: Optional[FlashCommand] = None
        # The best candidate's key, computed once a second one needs it.
        best_key: Optional[tuple] = None
        for offset in range(luns_per_channel):
            slot_lun, slot_queue, lun_key = slots[(rotation + offset) % luns_per_channel]
            if not slot_queue or slot_lun.current_command is not None:
                continue
            candidate = select(slot_queue, lun_key)
            if candidate is None:
                continue
            if cmd is not None:
                if best_key is None:
                    best_key = self._sort_key(cmd)
                key = self._sort_key(candidate)
                if not key < best_key:
                    continue
                best_key = key
            cmd, lun, queue = candidate, slot_lun, slot_queue
        if cmd is None:
            return False
        self._start(lun, queue, cmd)
        return True

    def _start_alone(self, lun: Lun, cmd: FlashCommand) -> None:
        """Start ``cmd``, the only command a pump could start, as that
        pump would.

        The pump's first pass would skip every channel before ``cmd``'s
        and start ``cmd`` there, leaving the queues and ready counts as
        they were and the high-watermark at least 1 (``cmd`` was queued
        until the pump took it).  Commands enqueued by the start
        itself (a GC trigger in ``bind_program``) collapse into this call
        as into a pump and are dispatched in the pump's order: the rest
        of the interrupted pass, from the next channel on, then full
        passes until one starts nothing.
        """
        if not self._queue_high_watermark:
            self._queue_high_watermark = 1
        self._pumping = True
        try:
            self._start(lun, None, cmd)
            if not self._ready_total:
                return
            now = self.sim.now
            ready = self._ready
            channels = self.array.channels
            for channel_id in range(lun.channel_id + 1, len(channels)):
                channel = channels[channel_id]
                if (
                    ready[channel_id]
                    and now >= channel.busy_until
                    and not channel.continuations
                ):
                    self._dispatch_on_channel(channel_id)
        finally:
            self._pumping = False
        self.pump()

    def _start(self, lun: Lun, queue: Optional[LunQueue], cmd: FlashCommand) -> None:
        """Start ``cmd`` on its idle ``lun``: the one way a command goes
        from the scheduler to the array.  ``queue`` is the LUN's queue,
        which holds ``cmd``, or None for a command :meth:`_start_alone`
        starts unqueued."""
        channel_id = lun.channel_id
        if queue is not None:
            del queue[cmd.id]
            self._pending -= 1
            # The LUN goes busy, so it is no longer ready.
            self._ready[channel_id] -= 1
            self._ready_total -= 1
        if self.config.policy is SsdSchedulerPolicy.FAIR:
            self._advance_fair(cmd)
        self._lun_rotation[channel_id] = (lun.lun_id + 1) % self._luns_per_channel
        self.array.start(cmd)

    # ------------------------------------------------------------------
    # Policy: candidate selection within one LUN queue
    # ------------------------------------------------------------------
    def _select_min(
        self, queue: LunQueue, lun_key: tuple[int, int]
    ) -> Optional[FlashCommand]:
        """The eligible command with the smallest sort key."""
        best: Optional[FlashCommand] = None
        best_key: Optional[tuple] = None
        # simlint: disable=SIM003 -- insertion order is enqueue order
        for cmd in queue.values():
            if not self._eligible(cmd):
                continue
            key = self._sort_key(cmd)
            if best_key is None or key < best_key:
                best, best_key = cmd, key
        return best

    def _select_fifo(
        self, queue: LunQueue, lun_key: Optional[tuple[int, int]] = None
    ) -> Optional[FlashCommand]:
        """The eligible command with the smallest ``(enqueue_time, id)``.

        ``enqueue`` stamps the never-decreasing ``sim.now``, so queue
        order is key order except among commands enqueued at the same
        instant: take the first eligible command, then the smallest id
        among the eligible ones of its instant that follow it.
        """
        best: Optional[FlashCommand] = None
        # simlint: disable=SIM003 -- insertion order is enqueue order
        for cmd in queue.values():
            if best is None:
                if self._eligible(cmd):
                    best = cmd
            elif cmd.enqueue_time != best.enqueue_time:
                break
            elif cmd.id < best.id and self._eligible(cmd):
                best = cmd
        return best

    def _select_fair(
        self, queue: LunQueue, lun_key: tuple[int, int]
    ) -> Optional[FlashCommand]:
        start = self._fair_rotation[lun_key]
        for offset in range(len(_FAIR_ORDER)):
            source = _FAIR_ORDER[(start + offset) % len(_FAIR_ORDER)]
            # simlint: disable=SIM003 -- insertion order is enqueue order
            for cmd in queue.values():
                if cmd.source is source and self._eligible(cmd):
                    return cmd
        return None

    def _advance_fair(self, cmd: FlashCommand) -> None:
        index = _FAIR_ORDER.index(cmd.source)
        self._fair_rotation[cmd.lun_key] = (index + 1) % len(_FAIR_ORDER)

    def _eligible(self, cmd: FlashCommand) -> bool:
        if cmd.kind is CommandKind.ERASE:
            address = cmd.address
            lun = self.array.lun_grid[address.channel][address.lun]
            return lun.erasable(address.block)
        if cmd.kind in (CommandKind.PROGRAM, CommandKind.COPYBACK):
            return self.can_bind(cmd)
        return True

    # ------------------------------------------------------------------
    # Policy: ordering
    # ------------------------------------------------------------------
    def _sort_key(self, cmd: FlashCommand) -> tuple:
        """Smaller sorts first.  All keys end with (enqueue_time, id) so
        ordering is total and deterministic."""
        now = self.sim.now
        tail = (cmd.enqueue_time or 0, cmd.id)
        policy = self.config.policy
        if policy is SsdSchedulerPolicy.FIFO:
            return tail
        if policy is SsdSchedulerPolicy.PRIORITY:
            starved = cmd.age(now) >= self.config.starvation_age_ns
            if starved:
                return (0, 0, 0) + tail
            source_prio = self.config.source_priorities.get(cmd.source.name, 9)
            type_prio = self.config.type_priorities.get(cmd.kind.name, 9)
            hint_prio = 0
            if self.config.use_priority_hints and cmd.io is not None:
                hint_prio = cmd.io.hints.get("priority", 0)
            return (1, hint_prio, source_prio * 10 + type_prio) + tail
        if policy is SsdSchedulerPolicy.DEADLINE:
            deadline = cmd.deadline if cmd.deadline is not None else float("inf")
            overdue = 0 if cmd.overdue(now) else 1
            return (overdue, deadline) + tail
        if policy is SsdSchedulerPolicy.FAIR:
            return tail
        raise ValueError(f"unknown scheduler policy {policy!r}")

    def deadline_for(self, kind: CommandKind, now: int) -> Optional[int]:
        """Absolute deadline a new command of ``kind`` should carry under
        the DEADLINE policy (None otherwise)."""
        if not self._deadline_policy:
            return None
        if kind is CommandKind.READ:
            return now + self.config.read_deadline_ns
        if kind is CommandKind.ERASE:
            return now + self.config.erase_deadline_ns
        return now + self.config.write_deadline_ns
