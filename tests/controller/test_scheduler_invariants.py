"""Randomized invariants of the scheduler's incremental dispatch state.

The scheduler keeps a queued-command count per channel and in total,
updated by enqueue, dispatch and overload-timeout abort, and ``pump``
skips every channel whose count is zero.  Random workloads under every
policy, with and without command timeouts, are stepped one event at a
time; after every event the counts must equal the queue lengths, and
after every outermost ``pump`` no free channel may be left with an idle
LUN holding an eligible command.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FtlKind, Simulation, SsdSchedulerPolicy, small_config
from repro.core import units
from repro.workloads import MixedWorkloadThread, TraceReplayThread
from repro.workloads.trace_replay import generate_poisson_trace


def _assert_counts_match_queues(scheduler, array) -> None:
    per_channel = [0] * len(array.channels)
    for (channel, _), queue in scheduler.queues.items():
        per_channel[channel] += len(queue)
    assert scheduler._channel_pending == per_channel
    assert scheduler.total_pending() == sum(per_channel)


def _assert_quiescent(scheduler, array) -> None:
    now = scheduler.sim.now
    for channel in array.channels:
        if not channel.is_free(now) or channel.has_continuations:
            continue
        for (channel_id, lun_id), queue in scheduler.queues.items():
            if channel_id != channel.channel_id:
                continue
            if array.lun(channel_id, lun_id).is_busy:
                continue
            stuck = [cmd for cmd in queue if scheduler._eligible(cmd)]
            assert not stuck, f"pump left {stuck} on idle LUN ({channel_id},{lun_id})"


def _checked_pump(scheduler, array):
    pump = scheduler.pump

    def checked() -> None:
        outermost = not scheduler._pumping
        pump()
        if outermost:
            _assert_quiescent(scheduler, array)

    return checked


def _run_checked(config, storm_iops: int) -> Simulation:
    """Step a storm plus a closed-loop thread, checking after each event."""
    simulation = Simulation(config)
    trace = generate_poisson_trace(
        storm_iops, units.milliseconds(1), config.logical_pages, read_fraction=0.5,
        seed=config.seed,
    )
    simulation.add_thread(TraceReplayThread("storm", trace, timed=True))
    simulation.add_thread(MixedWorkloadThread("mixed", count=200, depth=16))

    scheduler = simulation.controller.scheduler
    array = simulation.controller.array
    checked = _checked_pump(scheduler, array)
    scheduler.pump = checked
    array.on_resource_free = checked

    simulation.os.start()
    while simulation.sim.step():
        _assert_counts_match_queues(scheduler, array)
    assert scheduler.total_pending() == 0
    assert scheduler.enqueued_commands > 0
    return simulation


@settings(max_examples=12, deadline=None)
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
    _run_checked(config, storm_iops=200_000)


def test_counts_survive_timeout_aborts() -> None:
    """A storm deep enough that queued commands time out and abort."""
    config = small_config(seed=29)
    config.overload.enabled = True
    config.overload.command_timeout_ns = units.microseconds(150)
    simulation = _run_checked(config, storm_iops=2_000_000)
    assert simulation.controller.overload.command_timeouts > 0
