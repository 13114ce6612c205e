"""Tests for the trace recorder."""

import csv

from repro.core.tracing import TraceRecorder


class TestRecording:
    def test_disabled_recorder_drops_everything(self):
        recorder = TraceRecorder(enabled=False)
        recorder.record(10, "os", "issue", "x")
        assert len(recorder) == 0

    def test_enabled_recorder_keeps_records(self):
        recorder = TraceRecorder(enabled=True)
        recorder.record(10, "os", "issue", "read lpn=3")
        recorder.record(20, "hardware", "start", "READ (c0,l0,b0,p0)")
        assert len(recorder) == 2
        assert recorder.records[0].time_ns == 10
        assert recorder.records[1].layer == "hardware"


class TestFilter:
    def _recorder(self):
        recorder = TraceRecorder(enabled=True)
        recorder.record(1, "os", "issue", "a")
        recorder.record(2, "os", "dispatch", "b")
        recorder.record(3, "controller", "accept", "c")
        return recorder

    def test_filter_by_layer(self):
        assert len(self._recorder().filter(layer="os")) == 2

    def test_filter_by_event(self):
        assert len(self._recorder().filter(event="accept")) == 1

    def test_filter_by_predicate(self):
        matches = self._recorder().filter(predicate=lambda r: r.time_ns >= 2)
        assert len(matches) == 2

    def test_filters_compose(self):
        matches = self._recorder().filter(layer="os", event="issue")
        assert len(matches) == 1 and matches[0].detail == "a"


class TestOutput:
    def test_render_limits_to_tail(self):
        recorder = TraceRecorder(enabled=True)
        for i in range(10):
            recorder.record(i, "os", "e", f"rec{i}")
        text = recorder.render(limit=2)
        assert "rec9" in text and "rec0" not in text

    def test_csv_round_trip(self, tmp_path):
        recorder = TraceRecorder(enabled=True)
        recorder.record(5, "os", "issue", "read lpn=1")
        path = tmp_path / "trace.csv"
        recorder.to_csv(str(path))
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["time_ns", "layer", "event", "detail"]
        assert rows[1] == ["5", "os", "issue", "read lpn=1"]

    def test_record_format_contains_fields(self):
        recorder = TraceRecorder(enabled=True)
        recorder.record(1_500, "os", "issue", "x")
        line = recorder.records[0].format()
        assert "1.500us" in line and "os" in line and "issue" in line
