"""Replay every scheduler-policy golden scenario and compare digests.

See :mod:`tests.integration.golden_policies` for the scenario grid.
"""

from __future__ import annotations

import json

import pytest

from tests.integration.golden_policies import (
    FIXTURE_PATH,
    run_policy_scenario,
    scenarios,
)

_SCENARIOS = scenarios()


@pytest.fixture(scope="module")
def policy_fixture() -> dict[str, str]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_scenario(policy_fixture: dict[str, str]) -> None:
    assert sorted(policy_fixture) == sorted(_SCENARIOS)


@pytest.mark.parametrize("name", sorted(_SCENARIOS))
def test_policy_summary_digest(name: str, policy_fixture: dict[str, str]) -> None:
    assert run_policy_scenario(_SCENARIOS[name]) == policy_fixture[name]
