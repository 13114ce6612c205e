"""Tests for the configuration surface."""

import pytest

from repro.core import units
from repro.core.config import (
    ChipKind,
    ChipTimings,
    SimulationConfig,
    SsdGeometry,
    demo_config,
    set_by_path,
    small_config,
)


class TestChipTimings:
    def test_slc_faster_than_mlc(self):
        slc, mlc = ChipTimings.slc(), ChipTimings.mlc()
        assert slc.t_read_ns < mlc.t_read_ns
        assert slc.t_prog_ns < mlc.t_prog_ns
        assert slc.t_erase_ns < mlc.t_erase_ns
        assert slc.kind is ChipKind.SLC and mlc.kind is ChipKind.MLC

    def test_transfer_scales_with_bytes(self):
        timings = ChipTimings(bus_ns_per_byte=10)
        assert timings.transfer_ns(4096) == 40_960
        assert timings.transfer_ns(0) == 0

    def test_validate_rejects_nonpositive(self):
        timings = ChipTimings()
        timings.t_read_ns = 0
        with pytest.raises(ValueError):
            timings.validate()


class TestGeometry:
    def test_derived_quantities(self):
        g = SsdGeometry(
            channels=4,
            luns_per_channel=2,
            blocks_per_lun=64,
            pages_per_block=32,
            page_size_bytes=4096,
        )
        assert g.total_luns == 8
        assert g.pages_per_lun == 2048
        assert g.total_blocks == 512
        assert g.total_pages == 16_384
        assert g.capacity_bytes == 16_384 * 4096

    def test_validate_rejects_zero_channels(self):
        g = SsdGeometry(channels=0)
        with pytest.raises(ValueError):
            g.validate()

    def test_validate_requires_gc_headroom(self):
        g = SsdGeometry(blocks_per_lun=2)
        with pytest.raises(ValueError):
            g.validate()


class TestSimulationConfig:
    def test_presets_validate(self):
        small_config().validate()
        demo_config().validate()

    def test_logical_pages_respect_overprovisioning(self):
        config = small_config()
        assert config.logical_pages < config.geometry.total_pages
        expected = int(
            config.geometry.total_pages * (1 - config.controller.overprovisioning)
        )
        assert config.logical_pages == expected

    def test_infeasible_op_vs_greediness_rejected(self):
        config = small_config()
        config.controller.overprovisioning = 0.02
        with pytest.raises(ValueError, match="infeasible"):
            config.validate()

    def test_greediness_capped_by_blocks(self):
        config = small_config()
        config.controller.gc_greediness = config.geometry.blocks_per_lun
        with pytest.raises(ValueError):
            config.validate()

    def test_write_buffer_must_fit_battery_ram(self):
        config = small_config()
        config.controller.battery_ram_bytes = 4096
        config.controller.write_buffer_pages = 100
        with pytest.raises(ValueError, match="battery"):
            config.validate()

    def test_copy_is_deep(self):
        config = small_config()
        clone = config.copy()
        clone.controller.gc_greediness = 7
        clone.geometry.channels = 9
        assert config.controller.gc_greediness != 7
        assert config.geometry.channels != 9

    def test_describe_mentions_key_facts(self):
        text = small_config().describe()
        assert "FTL page" in text
        assert "GC greediness" in text
        assert "open interface off" in text

    def test_overrides_applied(self):
        config = small_config(seed=99)
        assert config.seed == 99

    def test_unknown_override_rejected(self):
        with pytest.raises(TypeError):
            small_config(bogus=1)

    def test_max_outstanding_validated(self):
        config = small_config()
        config.host.max_outstanding = 0
        with pytest.raises(ValueError):
            config.validate()


class TestPathAccess:
    def test_set_and_get_by_path(self):
        config = small_config()
        set_by_path(config, "controller.gc_greediness", 4)
        assert config.controller.gc_greediness == 4

    def test_nested_paths(self):
        config = small_config()
        set_by_path(config, "controller.scheduler.starvation_age_ns", units.SECOND)
        assert config.controller.scheduler.starvation_age_ns == units.SECOND

    def test_typo_fails_fast(self):
        config = small_config()
        with pytest.raises(AttributeError):
            set_by_path(config, "controller.gc_greedyness", 4)

    def test_unknown_intermediate_fails(self):
        config = small_config()
        with pytest.raises(AttributeError):
            set_by_path(config, "kontroller.gc_greediness", 4)
