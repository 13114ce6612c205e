"""OverloadConfig validation and defaults.

The overload layer is strictly opt-in: the default configuration must
validate, build no governor, and (covered by test_identity.py) leave
every simulation byte-identical to a build that predates the subsystem.
"""

import pytest

from repro import OverloadConfig, Simulation, small_config


def enabled(**overrides) -> OverloadConfig:
    config = OverloadConfig(enabled=True)
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


class TestDefaults:
    def test_disabled_by_default(self):
        assert OverloadConfig().enabled is False

    def test_default_validates(self):
        OverloadConfig().validate()

    def test_simulation_config_carries_overload(self):
        config = small_config()
        assert config.overload.enabled is False
        config.validate()

    def test_disabled_builds_no_governor(self):
        simulation = Simulation(small_config())
        assert simulation.controller.overload is None

    def test_enabled_builds_a_governor(self):
        config = small_config()
        config.overload.enabled = True
        simulation = Simulation(config)
        assert simulation.controller.overload is not None


class TestValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("host_queue_bound", 0),
            ("device_queue_bound", 0),
            ("command_timeout_ns", 0),
            ("command_timeout_ns", -1),
            ("max_retries", -1),
            ("retry_backoff_ns", 0),
            ("io_deadline_ns", 0),
            ("degraded_enter_pending", 0),
            ("degraded_admission_gap_ns", -1),
            ("shed_priority_threshold", -1),
        ],
    )
    def test_bad_values_raise(self, field, value):
        with pytest.raises(ValueError):
            enabled(**{field: value}).validate()

    def test_disabled_config_skips_field_validation(self):
        # Knobs on a disabled config are inert and never checked -- a
        # sweep may park invalid values behind enabled=False.
        config = OverloadConfig(host_queue_bound=0)
        config.validate()

    def test_simulation_validate_rejects_bad_overload(self):
        config = small_config()
        config.overload.enabled = True
        config.overload.host_queue_bound = 0
        with pytest.raises(ValueError):
            config.validate()
