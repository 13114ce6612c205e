"""Tests for deterministic result serialization (repro.core.statistics).

The contract: two identical runs serialize to identical *bytes* --
summaries via :func:`serialize_summary`, sweep exports via ``to_csv``
-- and every float survives the round trip exactly (shortest-repr JSON
encoding, no precision loss).  A one-axis sweep's CSV export also
matches ``tests/fixtures/golden_sweep.csv`` byte for byte.
"""

import functools
import math
from pathlib import Path

import pytest

from repro import GridExperiment, Parameter, small_config
from repro.core.statistics import (
    deserialize_summary,
    plain_number,
    serialize_summary,
    stable_number_text,
)
from repro.service.grids import mixed_workload

IOS = 150
GOLDEN_SWEEP = Path(__file__).resolve().parents[1] / "fixtures" / "golden_sweep.csv"


def template() -> GridExperiment:
    """A one-axis grid: the paper's experiment template."""
    return GridExperiment(
        name="serialization",
        base_config=small_config(),
        parameters=[Parameter("greediness", path="controller.gc_greediness")],
        values=[[1, 2]],
        workload=functools.partial(mixed_workload, ios=IOS),
    )


# ----------------------------------------------------------------------
# Number normalisation
# ----------------------------------------------------------------------
def test_plain_number_preserves_ints_and_floats():
    assert plain_number(3) == 3 and isinstance(plain_number(3), int)
    assert plain_number(1.5) == 1.5 and isinstance(plain_number(1.5), float)


def test_plain_number_rejects_bools_and_non_numbers():
    with pytest.raises(TypeError):
        plain_number(True)
    with pytest.raises(TypeError):
        plain_number("7")


def test_plain_number_normalises_numpy_scalars():
    numpy = pytest.importorskip("numpy")
    assert plain_number(numpy.int64(7)) == 7
    assert isinstance(plain_number(numpy.int64(7)), int)
    assert plain_number(numpy.float64(0.1)) == 0.1
    assert isinstance(plain_number(numpy.float64(0.1)), float)


def test_stable_number_text_is_shortest_roundtrip():
    assert stable_number_text(0.1) == "0.1"
    assert stable_number_text(1 / 3) == repr(1 / 3)
    assert float(stable_number_text(1 / 3)) == 1 / 3


# ----------------------------------------------------------------------
# Summary serialization
# ----------------------------------------------------------------------
def test_serialize_summary_sorts_keys():
    assert serialize_summary({"b": 2, "a": 1}) == '{"a":1,"b":2}'


def test_serialize_summary_rejects_non_finite():
    with pytest.raises(ValueError):
        serialize_summary({"x": math.nan})


def test_summary_roundtrip_is_exact():
    summary = {"iops": 34215.52498872926, "count": 16417, "tiny": 5e-324}
    restored = deserialize_summary(serialize_summary(summary))
    assert restored == summary
    assert serialize_summary(restored) == serialize_summary(summary)


def test_two_identical_runs_serialize_to_identical_bytes():
    one = template().run()
    two = template().run()
    first = [serialize_summary(run.result.summary()) for run in one.runs]
    second = [serialize_summary(run.result.summary()) for run in two.runs]
    assert first == second


def test_to_csv_exports_are_byte_identical(tmp_path):
    path_one, path_two = tmp_path / "one.csv", tmp_path / "two.csv"
    template().run().to_csv(str(path_one))
    template().run().to_csv(str(path_two))
    first = path_one.read_bytes()
    assert first == path_two.read_bytes()
    assert first.startswith(b"greediness,")


def test_one_axis_csv_export_matches_golden(tmp_path):
    """The fixture was exported by the single-parameter template class
    that the one-axis grid replaced: the fold changed no byte."""
    path = tmp_path / "sweep.csv"
    template().run().to_csv(str(path))
    assert path.read_bytes() == GOLDEN_SWEEP.read_bytes()
