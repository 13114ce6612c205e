"""The layerbench digest check CI runs after its benchmark smoke steps."""

import json

from benchmarks.perf import check_layerbench_digests as check


def _output(tmp_path, workload, digests, seed=1):
    report = {"workload": workload, "seed": seed, "summary_sha256": digests}
    path = tmp_path / f"layerbench-{workload}.out"
    path.write_text(json.dumps({"report": report}) + "\n" + json.dumps({"correct": True}) + "\n")
    return path


def test_fixture_covers_the_gated_workloads():
    fixture = json.loads(check.FIXTURE.read_text())["summary_sha256"]
    benchmark = json.loads((check.FIXTURE.parents[2] / "BENCHMARK.json").read_text())
    assert set(fixture) == {workload["name"] for workload in benchmark["workloads"]}
    assert all(set(digests) == {"3", "4", "5"} for digests in fixture.values())


def test_matching_outputs_pass_and_any_difference_fails(tmp_path, monkeypatch):
    monkeypatch.setattr(check, "FIXTURE", tmp_path / "fixture.json")
    outputs = [_output(tmp_path, "a", {"3": "x", "4": "y"}), _output(tmp_path, "b", {"3": "z"})]
    names = [str(path) for path in outputs]
    assert check.main(["--write", *names]) == 0
    assert check.main(names) == 0
    _output(tmp_path, "a", {"3": "x", "4": "changed"})
    assert check.main(names) == 1
    assert check.main(names[1:]) == 1  # "a" missing


def test_compare_names_each_difference():
    expected = {"a": {"3": "x", "4": "y"}}
    assert check.compare(expected, {"a": {"3": "x", "4": "y"}}) == []
    assert check.compare(expected, {"a": {"3": "x"}}) == ["a sub-seed 4: expected y, got None"]
    assert check.compare(expected, {}) == ["a: no output"]
