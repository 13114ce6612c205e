"""Property test: arbitrary legal post interleavings never trip the
sanitizer.

The sanitizer exists to catch *engine misuse*; anything expressible
through the public Simulator API is by definition legal, so no
interleaving of post() and post_at() -- including posts made from
inside callbacks while the run is in flight -- may raise a
monotonicity error.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator

# One pre-run operation: (kind, delay).
_ops = st.lists(
    st.tuples(
        st.sampled_from(["post", "post_at", "nested"]),
        st.integers(min_value=0, max_value=200),
    ),
    max_size=40,
)


def _apply(sim: Simulator, posted: list, kind: str, delay: int) -> None:
    """Perform one operation; ``posted`` counts every event posted."""

    def noop():
        pass

    def nested():
        # In-flight behaviour: a firing event posts more work.
        sim.post(delay, noop)
        sim.post_at(sim.now + delay // 2, noop)
        posted[0] += 2

    if kind == "post":
        sim.post(delay, noop)
    elif kind == "post_at":
        sim.post_at(sim.now + delay, noop)
    elif kind == "nested":
        sim.post(delay, nested)
    posted[0] += 1


@settings(max_examples=200, deadline=None)
@given(_ops)
def test_interleavings_never_trip_sanitizer(ops):
    sim = Simulator(sanitize=True)
    posted = [0]
    for kind, delay in ops:
        _apply(sim, posted, kind, delay)
    sim.run()  # raises SanitizerError on a monotonicity violation
    # Every posted event fired exactly once.
    assert sim.pending_events == 0
    assert sim.processed_events == posted[0]


@settings(max_examples=100, deadline=None)
@given(_ops, _ops)
def test_sanitize_flag_never_changes_behaviour(first, second):
    """The observer property, engine-level: identical op sequences give
    identical timelines with the sanitizer on and off."""
    results = []
    for sanitize in (False, True):
        sim = Simulator(sanitize=sanitize)
        posted = [0]
        for kind, delay in first + second:
            _apply(sim, posted, kind, delay)
        processed = sim.run()
        results.append((processed, sim.now, sim.pending_events))
    assert results[0] == results[1]
