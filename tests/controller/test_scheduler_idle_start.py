"""Exactness of the scheduler's idle-device start.

``SsdScheduler.enqueue`` starts a command without a dispatch scan when no
LUN is idle with queued work, the command's LUN is idle with an empty
queue, its channel is free and the command is eligible
(``SsdScheduler._start_alone``).  Every configuration here runs twice:
once as-is, and once with ``enqueue`` replaced by
:func:`_reference_enqueue` -- append to the LUN queue, then ``pump`` --
the oracle every enqueue followed before the idle-device start.  Both
runs must start the same commands at the same instants in the same
order, with the same LUN and FAIR rotations at each start, and end in the
same serialized summary.

The simulator's own start-time enqueues (a GC trigger while a program
binds its page) land on the starting LUN, which is busy by then, so they
never make another LUN ready.  ``echo`` runs add enqueues that do: each
third program start enqueues a read of a live page on an idle LUN of
every other channel, which reaches the rest of the pass the start interrupted
and the guard against an enqueue made during a pump.
"""

from __future__ import annotations

import itertools
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    ChipTimings,
    FaultPlan,
    FtlKind,
    Simulation,
    SsdSchedulerPolicy,
    small_config,
)
from repro.controller.scheduler import SsdScheduler
from repro.core import units
from repro.core.statistics import serialize_summary
from repro.hardware import commands
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.array import SsdArray
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.host.interface import priority_hint
from repro.workloads import (
    RandomReaderThread,
    RandomWriterThread,
    TraceReplayThread,
    precondition_sequential,
)
from repro.workloads.trace_replay import generate_poisson_trace


def _reference_enqueue(self: SsdScheduler, cmd: FlashCommand) -> None:
    """The oracle: queue the command, then run a full dispatch pump."""
    now = self.sim.now
    if cmd.deadline is None and self._deadline_policy:
        cmd.deadline = self.deadline_for(cmd.kind, now)
    cmd.enqueue_time = now
    address = cmd.address
    lun, queue, _ = self._slots[address.channel][address.lun]
    if not queue and lun.current_command is None:
        self._ready[address.channel] += 1
        self._ready_total += 1
    queue[cmd.id] = cmd
    if len(queue) > self._queue_high_watermark:
        self._queue_high_watermark = len(queue)
    self._pending += 1
    self.pump()


def _echo_reads(controller, origin: PhysicalAddress) -> None:
    """On every channel but ``origin.channel``, enqueue a read of the
    first live page of the first idle LUN with an empty queue."""
    scheduler = controller.scheduler
    for channel, luns in enumerate(controller.array.lun_grid):
        if channel == origin.channel:
            continue
        for lun in luns:
            if lun.current_command is not None or scheduler.queue_depth(lun.key):
                continue
            for block_id in range(lun.blocks_per_lun):
                pages = lun.live_page_indexes(block_id)
                if pages:
                    address = PhysicalAddress(channel, lun.lun_id, block_id, pages[0])
                    controller.enqueue_command(
                        FlashCommand(CommandKind.READ, CommandSource.MAPPING, address)
                    )
                    break
            break


def _config(seed, policy, ftl, interleaving, pipelining, reliability, timeout_us, loss_us):
    config = small_config(seed=seed)
    # Four channels of two LUNs: an idle-device start can interrupt a
    # pass with channels on both sides, and LUN rotation has a choice.
    config.geometry.channels = 4
    config.controller.ftl = ftl
    config.controller.scheduler.policy = policy
    config.controller.enable_interleaving = interleaving
    if pipelining:
        config.timings = ChipTimings.slc()
        config.controller.enable_pipelining = True
    if policy is SsdSchedulerPolicy.PRIORITY:
        config.host.open_interface = True
        config.controller.scheduler.use_priority_hints = True
    if reliability:
        # Read-error retries and an ECC decode that delays delivery.
        settings_ = config.reliability
        settings_.enabled = True
        settings_.base_rber = 2.5e-4
        settings_.ecc_correctable_bits = 6
        settings_.max_read_retries = 2
    if timeout_us is not None:
        config.overload.enabled = True
        config.overload.command_timeout_ns = units.microseconds(timeout_us)
    if loss_us is not None:
        config.reliability.fault_plan = FaultPlan().power_loss(
            at_ns=units.microseconds(loss_us), off_ns=units.microseconds(200)
        )
    return config


def _run(config, enqueue, echo: bool) -> tuple[list[tuple], str, int]:
    """Every array start as ``(now, id, channel, lun, kind, LUN rotation,
    FAIR rotation)``, the serialized summary and the number of starts
    the idle-device path served."""
    starts: list[tuple] = []
    programs = itertools.count()
    original_start = SsdArray.start

    def start(array: SsdArray, cmd: FlashCommand) -> None:
        scheduler = simulation.controller.scheduler
        address = cmd.address
        starts.append((
            array.sim.now, cmd.id, address.channel, address.lun, cmd.kind.name,
            tuple(scheduler._lun_rotation), scheduler._fair_rotation[cmd.lun_key],
        ))
        original_start(array, cmd)
        if echo and cmd.kind is CommandKind.PROGRAM and next(programs) % 3 == 0:
            _echo_reads(simulation.controller, address)

    with (
        mock.patch.object(commands, "_command_ids", itertools.count(1)),
        mock.patch.object(SsdScheduler, "enqueue", enqueue),
        mock.patch.object(SsdArray, "start", start),
        mock.patch.object(
            SsdScheduler, "_start_alone", autospec=True, side_effect=SsdScheduler._start_alone
        ) as alone,
    ):
        simulation = Simulation(config)
        fill = precondition_sequential(config.logical_pages)
        simulation.add_thread(fill)
        storm = generate_poisson_trace(
            100_000, units.milliseconds(1), config.logical_pages, read_fraction=0.5,
            seed=config.seed,
        )
        simulation.add_thread(TraceReplayThread("storm", storm, timed=True))
        simulation.add_thread(
            RandomWriterThread("writer", count=300, depth=16), depends_on=[fill.name]
        )
        simulation.add_thread(
            RandomReaderThread(
                "reader", count=150, depth=4,
                hint_fn=lambda io_type, lpn: priority_hint(-1),
            ),
            depends_on=[fill.name],
        )
        result = simulation.run()
    return starts, serialize_summary(result.summary()), alone.call_count


@settings(max_examples=10, deadline=None)
@example(
    seed=3, policy=SsdSchedulerPolicy.FIFO, ftl=FtlKind.PAGE, interleaving=True,
    pipelining=True, reliability=False, timeout_us=None, loss_us=None, echo=True,
)
@example(
    seed=5, policy=SsdSchedulerPolicy.PRIORITY, ftl=FtlKind.DFTL, interleaving=False,
    pipelining=False, reliability=True, timeout_us=None, loss_us=None, echo=True,
)
@example(
    seed=7, policy=SsdSchedulerPolicy.DEADLINE, ftl=FtlKind.HYBRID, interleaving=True,
    pipelining=False, reliability=False, timeout_us=120, loss_us=None, echo=False,
)
@example(
    seed=9, policy=SsdSchedulerPolicy.FAIR, ftl=FtlKind.PAGE, interleaving=True,
    pipelining=False, reliability=False, timeout_us=None, loss_us=700, echo=True,
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(list(SsdSchedulerPolicy)),
    ftl=st.sampled_from([FtlKind.PAGE, FtlKind.DFTL, FtlKind.HYBRID]),
    interleaving=st.booleans(),
    pipelining=st.booleans(),
    reliability=st.booleans(),
    timeout_us=st.one_of(st.none(), st.integers(min_value=30, max_value=400)),
    loss_us=st.one_of(st.none(), st.integers(min_value=100, max_value=3_000)),
    echo=st.booleans(),
)
def test_idle_device_start_matches_enqueue_then_pump(
    seed, policy, ftl, interleaving, pipelining, reliability, timeout_us, loss_us, echo
) -> None:
    knobs = (seed, policy, ftl, interleaving, pipelining, reliability, timeout_us, loss_us)
    starts, summary, served = _run(_config(*knobs), SsdScheduler.enqueue, echo)
    expected_starts, expected_summary, _ = _run(_config(*knobs), _reference_enqueue, echo)
    assert served > 0
    assert starts == expected_starts
    assert summary == expected_summary
