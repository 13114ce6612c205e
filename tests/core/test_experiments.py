"""Tests for the experiment-template suite.

A template (paper Section 2.3) is a one-axis :class:`GridExperiment`;
``tests/core/test_grid_experiments.py`` covers several axes.
"""

import pytest

from repro import GridExperiment, GridResult, Parameter, small_config
from repro.workloads import SequentialWriterThread


def _workload(count=150):
    def factory(config):
        return [SequentialWriterThread("w", count=count, depth=8)]

    return factory


def _one_axis(name, values, workload):
    """A queue-depth template: one ``host.max_outstanding`` axis."""
    return GridExperiment(
        name, small_config(), [Parameter("qd", path="host.max_outstanding")],
        [values], workload,
    )


class TestParameter:
    def test_path_parameter_applies(self):
        config = small_config()
        Parameter("greediness", path="controller.gc_greediness").apply(config, 5)
        assert config.controller.gc_greediness == 5

    def test_setter_parameter_applies(self):
        config = small_config()

        def set_depth(cfg, value):
            cfg.host.max_outstanding = value * 2

        Parameter("qd", setter=set_depth).apply(config, 8)
        assert config.host.max_outstanding == 16

    def test_parameter_without_target_rejected(self):
        with pytest.raises(ValueError):
            Parameter("broken").apply(small_config(), 1)


class TestTemplate:
    def _template(self, values=(1, 2, 4)):
        return _one_axis("queue depth sweep", values, _workload())

    def test_runs_one_simulation_per_value(self):
        result = self._template().run()
        assert [run.values for run in result.runs] == [(1,), (2,), (4,)]

    def test_base_config_not_mutated(self):
        template = self._template()
        template.run()
        assert template.base_config.host.max_outstanding == 32

    def test_each_run_sees_its_value(self):
        result = self._template().run()
        assert [run.config.host.max_outstanding for run in result.runs] == [1, 2, 4]

    def test_series_and_metrics(self):
        result = self._template().run()
        series = result.series("throughput_iops")
        assert [values for values, _ in series] == [(1,), (2,), (4,)]
        assert all(metric > 0 for _, metric in series)
        assert result.metrics("completed_ios") == [150.0] * 3

    def test_deeper_queue_not_slower(self):
        """Sanity shape: more outstanding IOs => throughput >= QD1."""
        series = dict(self._template().run().series("throughput_iops"))
        assert series[(4,)] >= series[(1,)]

    def test_best_run(self):
        result = self._template().run()
        best = result.best("throughput_iops")
        assert best.metric("throughput_iops") == max(result.metrics("throughput_iops"))

    def test_unknown_metric_is_loud(self):
        result = self._template(values=(1,)).run()
        with pytest.raises(KeyError):
            result.runs[0].metric("warp_factor")

    def test_table_renders(self):
        result = self._template(values=(1, 2)).run()
        table = result.table(["throughput_iops", "write_mean_ns"])
        assert "queue depth sweep" in table
        assert "qd" in table

    def test_progress_callback_invoked(self):
        seen = []
        self._template(values=(1, 2)).run(progress=lambda v, r: seen.append(v))
        assert seen == [(1,), (2,)]

    def test_workload_entries_may_carry_dependencies(self):
        def factory(config):
            prep = SequentialWriterThread("prep", count=50)
            main = SequentialWriterThread("main", count=50)
            return [prep, (main, ["prep"])]

        result = _one_axis("dep", [4], factory).run()
        assert result.runs[0].metric("completed_ios") == 100.0


class TestCsvExport:
    def test_to_csv_round_trips(self, tmp_path):
        import csv

        result = _one_axis("csv", [2, 8], _workload(count=60)).run()
        path = tmp_path / "sweep.csv"
        result.to_csv(str(path), metrics=["completed_ios", "throughput_iops"])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["qd", "completed_ios", "throughput_iops"]
        assert len(rows) == 3
        assert float(rows[1][1]) == 60.0

    def test_to_csv_defaults_to_all_metrics(self, tmp_path):
        result = _one_axis("csv", [4], _workload(count=40)).run()
        path = tmp_path / "sweep.csv"
        result.to_csv(str(path))
        header = open(path).readline()
        assert "write_amplification" in header

    def test_to_csv_empty_runs_writes_header_only(self, tmp_path):
        """Regression: an empty sweep must export a header-only file, not
        raise while probing runs[0] for the metric list."""
        import csv

        result = GridResult("empty", [Parameter("qd", path="host.max_outstanding")], [])
        path = tmp_path / "empty.csv"
        result.to_csv(str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["qd"]]

    def test_to_csv_empty_runs_with_explicit_metrics(self, tmp_path):
        import csv

        result = GridResult("empty", [Parameter("qd", path="host.max_outstanding")], [])
        path = tmp_path / "empty.csv"
        result.to_csv(str(path), metrics=["throughput_iops", "write_amplification"])
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["qd", "throughput_iops", "write_amplification"]]
