"""Randomized invariants of the scheduler's incremental dispatch state.

The scheduler counts, per channel and in total, the LUNs that are idle
and hold a queued command, updated by enqueue, dispatch, overload-timeout
abort and the array's ``on_lun_idle`` hook; ``pump`` returns at once when
the total is zero and skips every channel whose count is zero.  Random
workloads under every policy, with and without command timeouts and
power losses, are stepped one event at a time; after every event the
counts must equal a recount over the queues and LUNs.  Work
conservation -- no free channel left with an idle LUN holding an
eligible command -- is checked after every outermost ``pump``, after
every outermost ``enqueue`` (which starts a command that finds the
device idle without pumping) and after the last event of every instant:
the guard for the pump the array skips after a completing bus phase.
(Mid-instant it may not hold: a bus phase ending at ``now`` frees its
channel by the clock before its ``_after_bus`` event, queued at the same
instant, has run and pumped.)
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import FaultPlan, FtlKind, Simulation, SsdSchedulerPolicy, small_config
from repro.controller.scheduler import SsdScheduler
from repro.core import units
from repro.hardware.addresses import PhysicalAddress
from repro.hardware.commands import CommandKind, CommandSource, FlashCommand
from repro.workloads import MixedWorkloadThread, TraceReplayThread
from repro.workloads.trace_replay import generate_poisson_trace

from tests.controller.conftest import make_harness


def _assert_counts_match_queues(scheduler, array) -> None:
    ready = [0] * len(array.channels)
    queued = 0
    for (channel, lun_id), queue in scheduler.queues.items():
        queued += len(queue)
        if queue and not array.lun_grid[channel][lun_id].is_busy:
            ready[channel] += 1
    assert scheduler._ready == ready
    assert scheduler._ready_total == sum(ready)
    assert scheduler.total_pending() == queued


def _assert_quiescent(scheduler, array) -> None:
    now = scheduler.sim.now
    for channel in array.channels:
        if not channel.is_free(now) or channel.has_continuations:
            continue
        for channel_id, lun_id in scheduler.queues:
            if channel_id != channel.channel_id:
                continue
            if array.lun_grid[channel_id][lun_id].is_busy:
                continue
            queued = scheduler.queued((channel_id, lun_id))
            stuck = [cmd for cmd in queued if scheduler._eligible(cmd)]
            assert not stuck, f"pump left {stuck} on idle LUN ({channel_id},{lun_id})"


def _install_checked_pump(scheduler, array) -> None:
    def checked(dispatch):
        def run(*args) -> None:
            outermost = not scheduler._pumping
            dispatch(*args)
            if outermost:
                _assert_quiescent(scheduler, array)

        return run

    scheduler.pump = array.on_resource_free = checked(scheduler.pump)
    scheduler.enqueue = checked(scheduler.enqueue)


def _checked_init(original):
    """Wrap ``SsdScheduler.__init__``: every scheduler, the one rebuilt
    around the surviving array after a power loss included, starts with
    empty queues, idle LUNs and zero counts."""

    def init(self, *args, **kwargs) -> None:
        original(self, *args, **kwargs)
        assert not any(lun.is_busy for lun in self.array.luns.values())
        assert self._ready == [0] * len(self.array.channels)
        assert self._ready_total == 0
        assert self.total_pending() == 0

    return init


def _run_checked(config, storm_iops: int) -> Simulation:
    """Step a storm plus a closed-loop thread, checking after each event.

    Power losses in the config's fault plan are driven as
    ``Simulation.run`` drives them; the scheduler checked is always the
    current controller's.
    """
    with mock.patch.object(SsdScheduler, "__init__", _checked_init(SsdScheduler.__init__)):
        simulation = Simulation(config)
        trace = generate_poisson_trace(
            storm_iops, units.milliseconds(1), config.logical_pages, read_fraction=0.5,
            seed=config.seed,
        )
        simulation.add_thread(TraceReplayThread("storm", trace, timed=True))
        simulation.add_thread(MixedWorkloadThread("mixed", count=200, depth=16))
        sim = simulation.sim
        plan = config.reliability.fault_plan
        losses = sorted(plan.power_losses, key=lambda loss: loss.at_ns) if plan else []

        def check() -> None:
            controller = simulation.controller
            _assert_counts_match_queues(controller.scheduler, controller.array)
            following = sim.peek_time()
            if following is None or following > sim.now:
                _assert_quiescent(controller.scheduler, controller.array)

        _install_checked_pump(simulation.controller.scheduler, simulation.controller.array)
        simulation.os.start()
        for loss in losses:
            while sim.run(until=loss.at_ns, max_events=1):
                check()
            simulation._coordinator.power_cycle(loss)
            _install_checked_pump(
                simulation.controller.scheduler, simulation.controller.array
            )
            check()
        while sim.run(max_events=1):
            check()
    scheduler = simulation.controller.scheduler
    assert scheduler.total_pending() == 0
    assert scheduler._ready_total == 0
    return simulation


@settings(max_examples=12, deadline=None)
# Mid-instant, a channel can read free before its bus-end event runs.
@example(
    seed=1316, policy=SsdSchedulerPolicy.DEADLINE, ftl=FtlKind.HYBRID,
    interleaving=True, timeout_us=None,
)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(list(SsdSchedulerPolicy)),
    ftl=st.sampled_from([FtlKind.PAGE, FtlKind.HYBRID]),
    interleaving=st.booleans(),
    timeout_us=st.one_of(st.none(), st.integers(min_value=30, max_value=400)),
)
def test_counts_and_dispatch_stay_consistent(
    seed, policy, ftl, interleaving, timeout_us
) -> None:
    config = small_config(seed=seed)
    config.controller.ftl = ftl
    config.controller.scheduler.policy = policy
    config.controller.enable_interleaving = interleaving
    if timeout_us is not None:
        config.overload.enabled = True
        config.overload.command_timeout_ns = units.microseconds(timeout_us)
    simulation = _run_checked(config, storm_iops=200_000)
    assert sum(simulation.controller.stats.flash_commands.values()) > 0


def test_counts_survive_timeout_aborts() -> None:
    """A storm deep enough that queued commands time out and abort."""
    config = small_config(seed=29)
    config.overload.enabled = True
    config.overload.command_timeout_ns = units.microseconds(150)
    simulation = _run_checked(config, storm_iops=2_000_000)
    assert simulation.controller.overload.command_timeouts > 0


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    policy=st.sampled_from(list(SsdSchedulerPolicy)),
    ftl=st.sampled_from([FtlKind.PAGE, FtlKind.DFTL, FtlKind.HYBRID]),
    at_us=st.integers(min_value=20, max_value=900),
)
def test_counts_survive_power_loss(seed, policy, ftl, at_us) -> None:
    """``SsdArray.power_loss`` idles every LUN without ``on_lun_idle``:
    the scheduler rebuilt by crash recovery starts at zero (checked in
    its constructor) and stays consistent for the rest of the run."""
    config = small_config(seed=seed)
    config.controller.ftl = ftl
    config.controller.scheduler.policy = policy
    config.reliability.fault_plan = FaultPlan().power_loss(
        at_ns=units.microseconds(at_us), off_ns=units.microseconds(200)
    )
    simulation = _run_checked(config, storm_iops=200_000)
    assert simulation._coordinator.stats.power_losses == 1


def test_fifo_select_matches_full_min_scan() -> None:
    """FIFO picks in queue order, yet returns exactly what a full
    ``min(_sort_key)`` over the eligible commands returns: same-instant
    commands with out-of-order ids sit behind an ineligible head."""
    harness = make_harness(
        lambda config: setattr(config.controller.scheduler, "policy", SsdSchedulerPolicy.FIFO)
    )
    scheduler = harness.controller.scheduler
    lun_key = (0, 0)

    def command(kind: CommandKind) -> FlashCommand:
        block = -1 if kind is CommandKind.PROGRAM else 0
        address = PhysicalAddress(lun_key[0], lun_key[1], block, block)
        return FlashCommand(kind, CommandSource.APPLICATION, address, content=(0, 1))

    # Ids follow creation order: the ineligible commands get the lowest,
    # then the one enqueued an instant later; the queue holds the
    # same-instant ones in every order.
    blocked_program = command(CommandKind.PROGRAM)
    # Block 0 of a fresh LUN was never written: erasing it is not allowed.
    blocked_erase = command(CommandKind.ERASE)
    later, low, mid, high = (command(CommandKind.READ) for _ in range(4))
    assert not harness.controller.array.luns[lun_key].erasable(0)
    scheduler.can_bind = lambda cmd: cmd is not blocked_program

    same_instant = [blocked_program, blocked_erase, high, low, mid]
    for order in itertools.permutations(same_instant):
        for tail in ([], [later]):
            queue = scheduler.queues[lun_key] = OrderedDict()
            for cmd in order:
                cmd.enqueue_time = 1_000
                queue[cmd.id] = cmd
            for cmd in tail:
                cmd.enqueue_time = 2_000
                queue[cmd.id] = cmd
            eligible = [cmd for cmd in queue.values() if scheduler._eligible(cmd)]
            expected = min(eligible, key=scheduler._sort_key)
            assert expected is low
            assert scheduler._select_in(scheduler.queues[lun_key], lun_key) is expected
