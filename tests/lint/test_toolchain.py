"""The toolchain around the rules: structured syntax-error findings,
SARIF output and the whole-repo time budget."""

from __future__ import annotations

import json
import pathlib
import time

from repro.lint.cli import lint_paths, main

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

BAD_SOURCE = (
    "import random\n"
    "_CACHE = {}\n"
    "sim.post(1.5, tick)\n"
)


# ---------------------------------------------------------------------------
# E999: unparsable inputs become structured findings
# ---------------------------------------------------------------------------

def test_syntax_error_is_a_structured_finding(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n    pass\n")
    assert main(["--format", "json", str(broken)]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert len(payload["violations"]) == 1
    finding = payload["violations"][0]
    assert finding["rule"] == "E999"
    assert finding["name"] == "syntax-error"
    assert finding["path"].endswith("broken.py")
    assert finding["line"] == 1
    assert "cannot parse file" in finding["message"]
    assert "syntax error" in captured.err
    assert "Traceback" not in captured.err


def test_syntax_error_reports_offending_line(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("A = 1\nB = 2\ndef oops(:\n")
    assert main(["--format", "json", str(broken)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["line"] == 3


def test_null_bytes_file_is_reported_not_crashed(tmp_path, capsys):
    nasty = tmp_path / "nasty.py"
    nasty.write_bytes(b"A = 1\x00\n")
    assert main(["--format", "json", str(nasty)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["rule"] == "E999"


def test_undecodable_file_is_reported_not_crashed(tmp_path, capsys):
    nasty = tmp_path / "latin.py"
    nasty.write_bytes(b"# caf\xe9\nA = 1\n")
    assert main(["--format", "json", str(nasty)]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["rule"] == "E999"


def test_broken_file_does_not_poison_the_batch(tmp_path, capsys):
    (tmp_path / "broken.py").write_text("def oops(:\n")
    (tmp_path / "fine.py").write_text("import random\n")
    assert main(["--format", "json", str(tmp_path)]) == 2
    payload = json.loads(capsys.readouterr().out)
    rules = sorted(v["rule"] for v in payload["violations"])
    assert rules == ["E999", "SIM001"]
    # Only the parsable file counts as checked.
    assert payload["files_checked"] == 1


# ---------------------------------------------------------------------------
# SARIF output
# ---------------------------------------------------------------------------

def test_sarif_output_structure(tmp_path, capsys):
    offender = tmp_path / "offender.py"
    offender.write_text(BAD_SOURCE)
    assert main(["--format", "sarif", str(offender)]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert "2.1.0" in log["$schema"]
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "simlint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert "SIM001" in rule_ids and "SIM012" in rule_ids
    assert len(run["results"]) == 3
    result = run["results"][0]
    assert result["ruleId"] == "SIM001"
    assert driver["rules"][result["ruleIndex"]]["id"] == "SIM001"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"].endswith("offender.py")
    assert location["region"]["startLine"] == 1


def test_sarif_file_written_alongside_text(tmp_path, capsys):
    offender = tmp_path / "offender.py"
    offender.write_text(BAD_SOURCE)
    sarif_path = tmp_path / "lint.sarif"
    assert main([str(offender), "--sarif-file", str(sarif_path)]) == 1
    log = json.loads(sarif_path.read_text())
    assert len(log["runs"][0]["results"]) == 3


def test_sarif_clean_run_is_valid(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("A = (1, 2)\n")
    assert main(["--format", "sarif", str(clean)]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# whole-repo budget
# ---------------------------------------------------------------------------

def test_full_repo_analysis_under_thirty_seconds():
    start = time.perf_counter()
    violations, files_checked, _, errors = lint_paths([str(REPO_ROOT / "src")])
    elapsed = time.perf_counter() - start
    assert errors == []
    assert files_checked > 50
    assert violations == []
    assert elapsed < 30.0, f"full-repo lint took {elapsed:.1f}s"
