"""Property tests: arbitrary legal post interleavings and flash
operation sequences never trip the sanitizer.

The sanitizer exists to catch *engine misuse*; anything expressible
through the public Simulator API is by definition legal, so no
interleaving of post() and post_at() -- including posts made from
inside callbacks while the run is in flight -- may raise a
monotonicity error.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.engine import Simulator
from repro.hardware.flash import Lun

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


# One flash operation on a two-block LUN: (kind, block id).
_flash_ops = st.lists(
    st.tuples(st.sampled_from(["program", "invalidate", "erase"]), st.integers(0, 1)),
    max_size=60,
)


def _apply_flash(lun: Lun, live: list[list[int]], kind: str, block_id: int) -> None:
    """Perform ``kind`` on ``block_id`` when it is legal; ``live`` holds
    each block's live page indexes."""
    if kind == "program" and not lun.is_full(block_id):
        live[block_id].append(lun.program_next(block_id, (block_id, 1), 0))
    elif kind == "invalidate" and live[block_id]:
        lun.invalidate(block_id, live[block_id].pop(0))
    elif kind == "erase" and lun.erasable(block_id):
        lun.erase(block_id, 0)


@settings(max_examples=100, deadline=None)
@given(_flash_ops)
def test_legal_flash_ops_never_trip_sanitizer(ops):
    """The flash-level observer property: a sanitized LUN accepts every
    legal op sequence (its checks raise only on corrupted state) and ends
    in the same arrays as an unsanitized one."""
    finals = []
    for sanitize in (False, True):
        lun = Lun(0, 0, 2, 8, sanitize=sanitize)
        live: list[list[int]] = [[], []]
        for kind, block_id in ops:
            _apply_flash(lun, live, kind, block_id)
        state = lun.state
        finals.append(
            (state.write_pointer.tolist(), state.live_count.tolist(), state.valid.tolist())
        )
    assert finals[0] == finals[1]
