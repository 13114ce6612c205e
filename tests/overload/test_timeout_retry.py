"""Command timeouts, aborts and the host retry ladder.

An application command still queued past ``command_timeout_ns`` is
aborted: deleted from its LUN queue, its in-flight-read accounting
reversed, and its IO completed with ``TIMEOUT``.  The OS retries
BUSY/TIMEOUT completions with deterministic exponential backoff under a
per-IO deadline budget.  Every test runs with the sanitizer armed, and
the controller's invariants are checked after every drain -- the abort
path must leave flash state exactly as if the command was never issued.
"""

from __future__ import annotations

import re

from repro import IoStatus, small_config
from repro.core import units
from repro.workloads import TraceReplayThread
from repro.workloads.trace_replay import generate_poisson_trace

from tests.conftest import run_workload


def timeout_config(**overload):
    config = small_config(seed=29)
    config.sanitize = True
    config.host.retain_completed_ios = True
    config.overload.enabled = True
    config.overload.command_timeout_ns = units.microseconds(150)
    for key, value in overload.items():
        setattr(config.overload, key, value)
    return config


def storm_thread(config, rate_iops=2_000_000, duration_ns=units.milliseconds(2)):
    trace = generate_poisson_trace(
        rate_iops, duration_ns, config.logical_pages, read_fraction=0.5, seed=31
    )
    return TraceReplayThread("storm", trace, timed=True)


class TestTimeouts:
    def test_stuck_commands_abort_with_timeout_status(self):
        config = timeout_config()
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["command_timeouts"] > 0
        assert summary["timeout_ios"] > 0
        timed_out = [
            io
            for io in result.simulation.os.completed_ios
            if io.status is IoStatus.TIMEOUT
        ]
        assert len(timed_out) == summary["timeout_ios"]

    def test_abort_cleanup_passes_sanitizer_and_invariants(self):
        # run_workload already calls check_invariants() and asserts the
        # drain; sanitize=True additionally arms the flash state machine
        # and event-handle-leak checks.  A leaked in-flight read or a
        # double completion trips one of them.
        config = timeout_config()
        result = run_workload(config, [storm_thread(config)])
        assert result.summary()["command_timeouts"] > 0

    def test_every_io_completes_exactly_once(self):
        config = timeout_config()
        thread = storm_thread(config)
        result = run_workload(config, [thread])
        os = result.simulation.os
        record = os._records["storm"]
        delivered = len(os.completed_ios)
        assert record.issued == record.completed == delivered
        assert len({io.id for io in os.completed_ios}) == delivered

    def test_timeouts_disabled_leaves_commands_alone(self):
        config = timeout_config(command_timeout_ns=None)
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["command_timeouts"] == 0
        assert summary["timeout_ios"] == 0


class TestRetryLadder:
    def test_timeout_retries_record_attempts(self):
        config = timeout_config(
            max_retries=4, retry_backoff_ns=units.microseconds(50)
        )
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["io_retries"] > 0
        retried = [
            io for io in result.simulation.os.completed_ios if io.attempts > 0
        ]
        assert retried
        assert all(io.attempts <= 4 for io in retried)

    def test_exhaustion_fails_definitively(self):
        config = timeout_config(
            max_retries=1, retry_backoff_ns=units.microseconds(10)
        )
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["io_retries_exhausted"] > 0
        # Exhausted IOs surface their last failure status to the thread.
        assert summary["timeout_ios"] + summary["busy_ios"] > 0

    def test_deadline_budget_bounds_the_ladder(self):
        # A deadline shorter than the first backoff forbids any retry.
        config = timeout_config(
            max_retries=10,
            retry_backoff_ns=units.microseconds(500),
            io_deadline_ns=units.microseconds(200),
        )
        result = run_workload(config, [storm_thread(config)])
        summary = result.summary()
        assert summary["io_retries"] == 0
        assert summary["io_retries_exhausted"] > 0

    def test_backoff_doubles_per_attempt(self):
        backoff = units.microseconds(40)
        config = timeout_config(max_retries=4, retry_backoff_ns=backoff)
        config.trace_enabled = True
        result = run_workload(config, [storm_thread(config)])
        delays = {}
        for record in result.simulation.tracer.filter(layer="os", event="retry"):
            attempt, delay = re.search(r"try=(\d+) in (\d+)ns", record.detail).groups()
            delays.setdefault(int(attempt), set()).add(int(delay))
        assert len(delays) >= 2, "the storm must retry some IO more than once"
        assert delays == {
            attempt: {backoff * 2 ** (attempt - 1)} for attempt in delays
        }

    def test_backoff_is_deterministic(self):
        def run():
            config = timeout_config(
                max_retries=3, retry_backoff_ns=units.microseconds(40)
            )
            result = run_workload(config, [storm_thread(config)])
            return result.summary()

        assert run() == run()
