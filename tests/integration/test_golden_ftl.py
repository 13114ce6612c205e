"""Replay the FTL-path golden runs and compare digests and counters.

See :mod:`tests.integration.golden_ftl` for the runs.
"""

from __future__ import annotations

import json

import pytest

from tests.integration.golden_ftl import FIXTURE_PATH, RUNS, run_ftl


@pytest.fixture(scope="module")
def ftl_fixture() -> dict[str, dict[str, object]]:
    with open(FIXTURE_PATH) as handle:
        return json.load(handle)


def test_fixture_covers_every_ftl(ftl_fixture: dict[str, dict[str, object]]) -> None:
    assert sorted(ftl_fixture) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_reads_unmapped_pages_and_drives_its_counter(
    name: str, ftl_fixture: dict[str, dict[str, object]]
) -> None:
    counters = ftl_fixture[name]["counters"]
    assert counters[RUNS[name][2]] > 0
    assert counters["trims"] > 0
    assert counters["unmapped_reads"] > 0


@pytest.mark.parametrize("name", sorted(RUNS))
def test_ftl_path_digests(name: str, ftl_fixture: dict[str, dict[str, object]]) -> None:
    assert run_ftl(name) == ftl_fixture[name]
