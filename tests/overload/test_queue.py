"""The scheduler's per-LUN queues: enqueue order, O(1) removal, scaling.

Each LUN's pending commands sit in an ``OrderedDict`` keyed by command
id.  Dispatch and overload-timeout abort remove commands from anywhere
in a queue, so removal must be O(1) and iteration must stay in enqueue
order (FIFO selection and every tie-break depend on it).  Draining a
deep queue from its head must stay linear: deep queues are exactly the
overload regime the governor is built for.  The tests drive the
scheduler's own entry points on LUNs held busy, so nothing dispatches
underneath them.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand

from tests.controller.conftest import make_harness

#: Two LUNs on different channels.
LUNS = ((0, 0), (1, 0))
LUN = LUNS[0]


def _command(lun_key=LUN) -> FlashCommand:
    return FlashCommand(
        CommandKind.READ,
        CommandSource.APPLICATION,
        PhysicalAddress(channel=lun_key[0], lun=lun_key[1], block=0, page=0),
    )


def _held_scheduler():
    """A scheduler whose LUNs in ``LUNS`` are busy, so enqueued commands
    stay queued until the test takes them."""
    harness = make_harness()
    array = harness.controller.array
    for lun_key in LUNS:
        array.luns[lun_key].current_command = _command(lun_key)
    return harness.sim, harness.controller.scheduler


class TestSemantics:
    def test_append_iter_len(self):
        _, scheduler = _held_scheduler()
        commands = [_command() for _ in range(5)]
        for cmd in commands:
            scheduler.enqueue(cmd)
        assert list(scheduler.queued(LUN)) == commands
        assert scheduler.queue_depth(LUN) == 5
        assert scheduler.total_pending() == 5

    def test_remove_skips_in_iteration(self):
        _, scheduler = _held_scheduler()
        commands = [_command() for _ in range(5)]
        for cmd in commands:
            scheduler.enqueue(cmd)
        scheduler.abort(commands[2])
        assert list(scheduler.queued(LUN)) == [
            commands[0], commands[1], commands[3], commands[4]
        ]
        assert scheduler.queue_depth(LUN) == 4

    def test_double_remove_raises(self):
        _, scheduler = _held_scheduler()
        cmd = _command()
        scheduler.enqueue(cmd)
        scheduler.abort(cmd)
        with pytest.raises(ValueError, match="removed twice"):
            scheduler.abort(cmd)
        assert scheduler.total_pending() == 0

    def test_empty_queue_is_falsy(self):
        _, scheduler = _held_scheduler()
        assert not scheduler.queues[LUN]
        assert scheduler.queue_depth(LUN) == 0
        cmd = _command()
        scheduler.enqueue(cmd)
        scheduler.abort(cmd)
        assert not scheduler.queues[LUN]
        assert list(scheduler.queued(LUN)) == []

    def test_high_watermark_tracks_live_depth(self):
        _, scheduler = _held_scheduler()
        commands = [_command() for _ in range(4)]
        for cmd in commands[:3]:
            scheduler.enqueue(cmd)
        assert scheduler.max_queue_high_watermark() == 3
        scheduler.abort(commands[0])
        scheduler.abort(commands[1])
        scheduler.enqueue(commands[3])
        # Live depth never exceeded 3.
        assert scheduler.max_queue_high_watermark() == 3

    def test_abort_preserves_enqueue_order(self):
        _, scheduler = _held_scheduler()
        commands = [_command() for _ in range(100)]
        for cmd in commands:
            scheduler.enqueue(cmd)
        aborted = set(commands[:64:2])
        for cmd in commands[:64:2]:
            scheduler.abort(cmd)
        assert list(scheduler.queued(LUN)) == [c for c in commands if c not in aborted]


@given(
    ops=st.lists(
        st.tuples(
            st.booleans(),
            st.sampled_from(LUNS),
            st.integers(min_value=0, max_value=15),
        ),
        min_size=1,
        max_size=300,
    )
)
@settings(max_examples=50, deadline=None)
def test_matches_reference_list(ops):
    """Random enqueue/abort interleavings over two LUNs behave exactly
    like plain lists with ``list.remove``, and the high watermark is the
    deepest any queue has been."""
    _, scheduler = _held_scheduler()
    reference: dict[tuple[int, int], list[FlashCommand]] = {key: [] for key in LUNS}
    deepest = 0
    for is_remove, lun_key, index in ops:
        queue = reference[lun_key]
        if is_remove and queue:
            scheduler.abort(queue.pop(index % len(queue)))
        else:
            cmd = _command(lun_key)
            scheduler.enqueue(cmd)
            queue.append(cmd)
        deepest = max(deepest, len(queue))
        for key in LUNS:
            assert list(scheduler.queued(key)) == reference[key]
            assert scheduler.queue_depth(key) == len(reference[key])
        assert scheduler.total_pending() == sum(len(q) for q in reference.values())
        assert scheduler.max_queue_high_watermark() == deepest


def test_deep_queue_dispatch_is_not_quadratic():
    """Drain a 50k-deep FIFO queue from its head the way dispatch does:
    select the first eligible command, then take it.  Each step must
    reach the head in O(1).  A queue whose walk re-skips the entries
    already removed in front of the head makes the drain quadratic: the
    earlier tombstone-list queue took over 10 s at this depth."""
    depth = 50_000
    sim, scheduler = _held_scheduler()
    commands = [_command() for _ in range(depth)]
    # One instant apart, so FIFO's same-instant tie scan stays trivial.
    for delay, cmd in enumerate(commands):
        sim.post(delay, scheduler.enqueue, cmd)
    sim.run()
    assert scheduler.queue_depth(LUN) == depth

    lun = scheduler.array.luns[LUN]
    queue = scheduler.queues[LUN]
    drained = []
    start = time.perf_counter()
    for _ in range(depth):
        cmd = scheduler._select_fifo(queue)
        scheduler._take(lun, queue, cmd)
        drained.append(cmd)
    elapsed = time.perf_counter() - start
    assert drained == commands
    assert scheduler.total_pending() == 0
    assert elapsed < 2.0, f"draining {depth} commands took {elapsed:.2f} s"
