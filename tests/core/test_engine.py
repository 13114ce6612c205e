"""Unit and property tests for the discrete-event engine."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import repro
from repro.core.engine import SimulationError, Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.post(30, fired.append, 30)
        sim.post(10, fired.append, 10)
        sim.post(20, fired.append, 20)
        sim.run()
        assert fired == [10, 20, 30]

    def test_equal_timestamps_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in range(5):
            sim.post(7, fired.append, tag)
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.post(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_zero_delay_runs_after_current_instant_queue(self):
        sim = Simulator()
        fired = []
        sim.post(5, fired.append, "first")
        sim.post(5, lambda: sim.post(0, fired.append, "nested"))
        sim.post(5, fired.append, "second")
        sim.run()
        assert fired == ["first", "second", "nested"]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.post(-1, lambda: None)
        with pytest.raises(ValueError):
            sim.post_at(-1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.post_at(5, lambda: None)

    def test_events_can_schedule_events(self):
        sim = Simulator()
        fired = []

        def chain(n):
            fired.append(sim.now)
            if n > 0:
                sim.post(10, chain, n - 1)

        sim.post(0, chain, 3)
        sim.run()
        assert fired == [0, 10, 20, 30]


class TestPost:
    def test_post_fires_like_schedule(self):
        """``post`` takes a relative delay, ``post_at`` an absolute time."""
        sim = Simulator()
        fired = []
        sim.post(20, fired.append, "b")
        sim.post(10, fired.append, "a")
        sim.post_at(30, fired.append, "c")
        sim.run()
        assert fired == ["a", "b", "c"]
        assert sim.processed_events == 3

    def test_post_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().post(-1, lambda: None)

    def test_post_at_in_past_rejected(self):
        sim = Simulator()
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.post_at(5, lambda: None)

    def test_post_and_schedule_share_fifo_order(self):
        """``post`` and ``post_at`` share one FIFO order per instant."""
        sim = Simulator()
        fired = []
        sim.post(7, fired.append, "post-first")
        sim.post_at(7, fired.append, "post-at")
        sim.post(7, fired.append, "post-last")
        sim.run()
        assert fired == ["post-first", "post-at", "post-last"]


class TestRun:
    def test_run_until_stops_clock_at_limit(self):
        sim = Simulator()
        fired = []
        sim.post(10, fired.append, "in")
        sim.post(100, fired.append, "out")
        sim.run(until=50)
        assert fired == ["in"]
        assert sim.now == 50

    def test_event_exactly_at_limit_fires(self):
        sim = Simulator()
        fired = []
        sim.post(50, fired.append, "edge")
        sim.run(until=50)
        assert fired == ["edge"]

    def test_run_returns_fired_count(self):
        sim = Simulator()
        for _ in range(4):
            sim.post(1, lambda: None)
        assert sim.run() == 4
        assert sim.processed_events == 4

    def test_max_events_bounds_work(self):
        sim = Simulator()
        for _ in range(10):
            sim.post(1, lambda: None)
        assert sim.run(max_events=3) == 3
        assert sim.pending_events == 7

    def test_step_returns_false_when_empty(self):
        """Stepping one event (``run(max_events=1)``) fires nothing on an
        empty queue."""
        sim = Simulator()
        assert sim.run(max_events=1) == 0
        sim.post(3, lambda: None)
        sim.post(5, lambda: None)
        assert sim.run(max_events=1) == 1
        assert (sim.now, sim.pending_events) == (3, 1)

    def test_peek_time(self):
        sim = Simulator()
        assert sim.peek_time() is None
        sim.post(33, lambda: None)
        assert sim.peek_time() == 33

    def test_run_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=500)
        assert sim.now == 500


class TestAdvanceTo:
    def test_advance_without_events(self):
        sim = Simulator()
        sim.advance_to(123)
        assert sim.now == 123

    def test_advance_past_pending_event_rejected(self):
        sim = Simulator()
        sim.post(10, lambda: None)
        with pytest.raises(SimulationError):
            sim.advance_to(20)

    def test_advance_backwards_rejected(self):
        sim = Simulator()
        sim.advance_to(10)
        with pytest.raises(ValueError):
            sim.advance_to(5)


@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=100))
def test_property_events_fire_in_nondecreasing_time(delays):
    sim = Simulator()
    fire_times = []
    for delay in delays:
        sim.post(delay, lambda: fire_times.append(sim.now))
    sim.run()
    assert len(fire_times) == len(delays)
    assert fire_times == sorted(fire_times)
    assert sorted(fire_times) == sorted(delays)


class TestClockIsEngineOnly:
    """``Simulator.now`` is a plain attribute for speed; only the engine
    may write it.  Every other module reads the clock."""

    @staticmethod
    def _clock_writes(tree: ast.AST) -> list[ast.Attribute]:
        """Attributes named ``now`` that an assignment stores to."""
        targets: list[ast.expr] = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets.extend(node.targets)
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets.append(node.target)
        return [
            node
            for target in targets
            for node in ast.walk(target)
            if isinstance(node, ast.Attribute) and node.attr == "now"
        ]

    def test_only_the_engine_writes_now(self):
        package = Path(repro.__file__).parent
        engine = package / "core" / "engine.py"
        offenders = []
        engine_writes = 0
        for path in sorted(package.rglob("*.py")):
            for node in self._clock_writes(ast.parse(path.read_text(), str(path))):
                is_self = isinstance(node.value, ast.Name) and node.value.id == "self"
                if path == engine and is_self:
                    engine_writes += 1
                else:
                    offenders.append(f"{path.relative_to(package)}:{node.lineno}")
        assert offenders == []
        assert engine_writes > 0  # the scan sees the engine's own writes

    def test_scan_flags_each_assignment_form(self):
        source = "a.now = 1\nb.now += 1\nc.now: int = 1\nd.now, e = 1, 2\nf = g.now\n"
        assert len(self._clock_writes(ast.parse(source))) == 4
