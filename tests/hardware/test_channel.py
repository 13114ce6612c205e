"""Tests for the channel (bus) resource."""

import pytest

from repro.hardware.channel import Channel


class TestOccupancy:
    def test_initially_free(self):
        assert Channel(0).is_free(0)

    def test_occupy_blocks_until_end(self):
        channel = Channel(0)
        end = channel.occupy(100, duration_ns=50)
        assert end == 150
        assert not channel.is_free(149)
        assert channel.is_free(150)

    def test_double_occupy_rejected(self):
        channel = Channel(0)
        channel.occupy(0, 100)
        with pytest.raises(RuntimeError):
            channel.occupy(50, 10)

    def test_busy_time_accumulates(self):
        channel = Channel(0)
        channel.occupy(0, 100)
        channel.occupy(200, 100)
        assert channel.busy_ns == 200

    def test_utilisation(self):
        channel = Channel(0)
        channel.occupy(0, 250)
        assert channel.utilisation(1000) == pytest.approx(0.25)
        assert channel.utilisation(0) == 0.0
        assert Channel(1).utilisation(100) == 0.0


class TestContinuations:
    def test_fifo_order(self):
        channel = Channel(0)
        order = []
        channel.park_continuation(lambda: order.append("a"))
        channel.park_continuation(lambda: order.append("b"))
        assert channel.has_continuations
        channel.continuations.popleft()()
        channel.continuations.popleft()()
        assert order == ["a", "b"]
        assert not channel.has_continuations
