"""Tests for the time/size unit helpers."""

from repro.core import units


class TestConversions:
    def test_round_trips(self):
        assert units.microseconds(25) == 25_000
        assert units.milliseconds(1.5) == 1_500_000
        assert units.seconds(2) == 2_000_000_000
        assert units.to_milliseconds(1_500_000) == 1.5

    def test_fractional_microseconds_round(self):
        assert units.microseconds(0.5) == 500
        assert units.microseconds(0.0004) == 0  # rounds, does not truncate up

    def test_constants_are_consistent(self):
        assert units.MICROSECOND == 1_000 * units.NANOSECOND
        assert units.MILLISECOND == 1_000 * units.MICROSECOND
        assert units.SECOND == 1_000 * units.MILLISECOND
        assert units.MIB == 1024 * units.KIB
        assert units.GIB == 1024 * units.MIB


class TestFormatting:
    def test_format_time_picks_unit(self):
        assert units.format_time(500) == "500ns"
        assert units.format_time(1_500) == "1.500us"
        assert units.format_time(2_000_000) == "2.000ms"
        assert units.format_time(3_000_000_000) == "3.000s"

    def test_format_bytes_picks_unit(self):
        assert units.format_bytes(512) == "512B"
        assert units.format_bytes(4096) == "4.0KiB"
        assert units.format_bytes(3 * units.MIB) == "3.0MiB"
        assert units.format_bytes(2 * units.GIB) == "2.0GiB"
