"""Runtime sanitizer tests: seeded violations must raise
:class:`SanitizerError`, clean runs must stay bit-identical.

The sanitizer is a pure observer: every check reads state the engine
already maintains, so enabling it cannot change results -- the last
test class proves that on a full simulation.
"""

from __future__ import annotations

import dataclasses
import heapq
import random

import pytest

from repro import Simulation, SanitizerError, small_config
from repro.core.engine import Simulator
from repro.core.rng import RandomSource, SanitizedRandomStream
from repro.hardware.flash import FlashStateError, Lun
from repro.hardware.state import FlashState
from repro.workloads import MixedWorkloadThread, RandomWriterThread


def noop(*args):
    pass


# ---------------------------------------------------------------------------
# virtual-time monotonicity
# ---------------------------------------------------------------------------

class TestMonotonicity:
    def test_past_event_raises(self):
        sim = Simulator(sanitize=True)

        def smuggle_past_event():
            # Bypass the post()-time guard, as a buggy engine
            # extension might: push an entry dated before now.
            heapq.heappush(sim._queue, (5, sim._seq, noop, ()))
            sim._seq += 1

        sim.post(100, smuggle_past_event)
        with pytest.raises(SanitizerError, match="virtual-time-monotonicity"):
            sim.run()

    def test_error_carries_event_context(self):
        sim = Simulator(sanitize=True)

        def smuggle():
            heapq.heappush(sim._queue, (7, sim._seq, noop, ()))
            sim._seq += 1

        sim.post(50, smuggle)
        with pytest.raises(SanitizerError) as excinfo:
            sim.run()
        message = str(excinfo.value)
        assert "event_time=7" in message
        assert "now=50" in message
        assert "noop" in message

    def test_step_also_guarded(self):
        sim = Simulator(sanitize=True)
        sim.post(10, noop)
        sim.run()
        heapq.heappush(sim._queue, (3, sim._seq, noop, ()))
        sim._seq += 1
        with pytest.raises(SanitizerError, match="monotonicity"):
            sim.run(max_events=1)


# ---------------------------------------------------------------------------
# erase-before-program page state machine
# ---------------------------------------------------------------------------

def sanitized_lun() -> tuple[Lun, FlashState]:
    """A sanitized LUN (c0,l0) of four four-page blocks and the arrays
    behind it, which the tests below corrupt directly.  Its local block
    ids are the global ids."""
    lun = Lun(0, 0, 4, 4, sanitize=True)
    return lun, lun.state


class TestFlashSanitizer:
    def test_program_on_unerased_page_raises(self):
        lun, state = sanitized_lun()
        lun.program_next(0, (1, 0), now_ns=0)
        # Corrupt the state machine the way a buggy GC might: a page
        # beyond the write pointer already holds data (LIVE).
        word, bit = state.bit_location(0, 1)
        state.mv_programmed[word] |= 1 << bit
        state.mv_valid[word] |= 1 << bit
        state.live_count[0] += 1
        state.write_pointer[0] += 1
        with pytest.raises(SanitizerError, match="erase-before-program") as excinfo:
            # Rewind the pointer onto the occupied page.
            state.write_pointer[0] = 1
            state.live_count[0] -= 1
            lun.program_next(0, (2, 0), now_ns=10)
        assert "(c0,l0,b0)" in str(excinfo.value)

    def test_counter_identity_checked_on_program(self):
        lun, state = sanitized_lun()
        lun.program_next(1, (1, 0), now_ns=0)
        state.live_count[1] += 1  # diverge live+dead from write_pointer
        with pytest.raises(SanitizerError, match="flash-page-state") as excinfo:
            lun.program_next(1, (2, 0), now_ns=10)
        assert "(c0,l0,b1)" in str(excinfo.value)

    def test_erase_full_scan_detects_ghost_page(self):
        lun, state = sanitized_lun()
        lun.program_next(2, (1, 0), now_ns=0)
        lun.invalidate(2, 0)
        # A page beyond the write pointer was silently programmed (DEAD,
        # holding a token).
        word, bit = state.bit_location(2, 2)
        state.mv_programmed[word] |= 1 << bit
        state.mv_has_content[word] |= 1 << bit
        state.mv_page_lpn[2 * 4 + 2] = 9
        with pytest.raises(SanitizerError, match="flash-page-state") as excinfo:
            lun.erase(2, now_ns=10)
        assert "(c0,l0,b2)" in str(excinfo.value)

    def test_plain_block_still_raises_flash_state_error(self):
        lun = Lun(0, 0, 1, 4)
        lun.program_next(0, (1, 0), now_ns=0)
        lun.state.write_pointer[0] = 0
        with pytest.raises(FlashStateError):
            lun.program_next(0, (2, 0), now_ns=10)


# ---------------------------------------------------------------------------
# per-stream RNG integrity
# ---------------------------------------------------------------------------

class TestRngSanitizer:
    def test_sanitized_stream_draws_identically(self):
        plain = RandomSource(42).stream("gc")
        guarded = RandomSource(42, sanitize=True).stream("gc")
        assert [plain.random() for _ in range(20)] == [
            guarded.random() for _ in range(20)
        ]

    def test_reseed_raises(self):
        stream = RandomSource(42, sanitize=True).stream("gc")
        with pytest.raises(SanitizerError, match="rng-stream-integrity"):
            stream.seed(123)

    def test_setstate_raises(self):
        source = RandomSource(42, sanitize=True)
        stream = source.stream("gc")
        state = random.Random(1).getstate()
        with pytest.raises(SanitizerError, match="rng-stream-integrity"):
            stream.setstate(state)

    def test_bypassed_mutation_detected_on_next_draw(self):
        stream = RandomSource(42, sanitize=True).stream("gc")
        stream.random()
        # Cross-contamination: some code re-seeds the stream through the
        # base class, dodging the sealed seed() override.
        random.Random.seed(stream, 123)
        with pytest.raises(SanitizerError, match="rng-stream-integrity") as excinfo:
            stream.random()
        assert "gc" in str(excinfo.value)

    def test_draw_counts(self):
        source = RandomSource(42, sanitize=True)
        gc_stream = source.stream("gc")
        wl_stream = source.stream("wl")
        for _ in range(3):
            gc_stream.random()
        wl_stream.getrandbits(8)
        assert source.draw_counts() == {"gc": 3, "wl": 1}
        assert isinstance(gc_stream, SanitizedRandomStream)


# ---------------------------------------------------------------------------
# whole-simulation behaviour
# ---------------------------------------------------------------------------

class TestSanitizedSimulation:
    def _run(self, sanitize: bool):
        config = dataclasses.replace(small_config(), sanitize=sanitize)
        sim = Simulation(config)
        sim.add_thread(RandomWriterThread("writer", count=400))
        sim.add_thread(
            MixedWorkloadThread("mixed", count=200, read_fraction=0.5)
        )
        return sim.run()

    def test_sanitized_run_is_bit_identical(self):
        plain = self._run(sanitize=False)
        sanitized = self._run(sanitize=True)
        assert plain.summary() == sanitized.summary()
        assert plain.elapsed_ns == sanitized.elapsed_ns
        assert plain.processed_events == sanitized.processed_events
        assert plain.flash_commands == sanitized.flash_commands

    def test_sanitized_run_passes_drain_check(self):
        """A sanitized run drains: every command completes."""
        result = self._run(sanitize=True)
        assert not result.incomplete
