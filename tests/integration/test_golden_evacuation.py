"""Replay the evacuation golden scenarios and compare digests and counters.

See :mod:`tests.integration.golden_evacuation` for the scenarios.
"""

from __future__ import annotations

import json

import pytest

from tests.integration.golden_evacuation import FIXTURE_PATH, SCENARIOS, run_scenario


@pytest.fixture(scope="module")
def evacuation_fixture() -> dict[str, dict[str, object]]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_scenario(
    evacuation_fixture: dict[str, dict[str, object]],
) -> None:
    assert sorted(evacuation_fixture) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_drives_its_counter(
    name: str, evacuation_fixture: dict[str, dict[str, object]]
) -> None:
    counter = SCENARIOS[name][1]
    assert evacuation_fixture[name]["counters"][counter] > 0


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_evacuation_digests(
    name: str, evacuation_fixture: dict[str, dict[str, object]]
) -> None:
    assert run_scenario(name) == evacuation_fixture[name]
