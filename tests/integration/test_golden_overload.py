"""Replay the overload golden scenarios and compare full summaries.

See :mod:`tests.integration.golden_overload` for the scenario.
"""

from __future__ import annotations

import json

import pytest

from repro.core.statistics import deserialize_summary

from tests.integration.golden_overload import FIXTURE_PATH, FTLS, run_scenario


@pytest.fixture(scope="module")
def overload_fixture() -> dict[str, str]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_ftl(overload_fixture: dict[str, str]) -> None:
    assert sorted(overload_fixture) == sorted(FTLS)


def test_fixture_exercises_the_overload_counters(
    overload_fixture: dict[str, str],
) -> None:
    for text in overload_fixture.values():
        summary = deserialize_summary(text)
        for key in ("device_busy_rejections", "io_retries", "io_retries_exhausted"):
            assert summary[key] > 0, key


@pytest.mark.parametrize("ftl", FTLS)
def test_overload_summary_bytes(ftl: str, overload_fixture: dict[str, str]) -> None:
    assert run_scenario(ftl) == overload_fixture[ftl]
