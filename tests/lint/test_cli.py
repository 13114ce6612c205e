"""CLI behaviour of ``python -m repro.lint``: exit codes, JSON output,
path scoping, and the repo-is-clean gate."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.lint.cli import iter_python_files, lint_paths, main
from repro.lint.config import path_is_globally_exempt, rule_applies
from repro.lint.framework import LintContext
from repro.lint.rules import ALL_RULES, rule_by_id

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

BAD_SOURCE = (
    "import random\n"
    "_CACHE = {}\n"
    "sim.post(1.5, tick)\n"
)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "offender.py"
    path.write_text(BAD_SOURCE)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text("VALUE = (1, 2)\n")
    return str(path)


# ---------------------------------------------------------------------------
# exit codes
# ---------------------------------------------------------------------------

def test_exit_zero_on_clean_file(clean_file, capsys):
    assert main([clean_file]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_exit_one_on_violations(bad_file, capsys):
    assert main([bad_file]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM006" in out and "SIM007" in out


def test_exit_two_on_no_paths(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("rule_id", ["SIM999", "SIM011", "SIM005"])
def test_exit_two_on_unknown_rule(bad_file, capsys, rule_id):
    assert main(["--select", rule_id, bad_file]) == 2


def test_exit_two_on_syntax_error(tmp_path, capsys):
    broken = tmp_path / "broken.py"
    broken.write_text("def oops(:\n")
    assert main([str(broken)]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("SIM001", "SIM007", "SIM009"):
        assert rule_id in out


# ---------------------------------------------------------------------------
# select / ignore
# ---------------------------------------------------------------------------

def test_select_restricts_rules(bad_file, capsys):
    assert main(["--select", "SIM001", bad_file]) == 1
    out = capsys.readouterr().out
    assert "SIM001" in out and "SIM006" not in out


def test_ignore_drops_rules(bad_file, capsys):
    assert main(["--ignore", "SIM001", "--ignore", "SIM006", bad_file]) == 1
    out = capsys.readouterr().out
    assert "SIM007" in out and "SIM001:" not in out


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

def test_json_output_schema(bad_file, capsys):
    assert main(["--format", "json", bad_file]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["files_checked"] == 1
    assert payload["count"] == len(payload["violations"]) == 3
    first = payload["violations"][0]
    assert set(first) == {"path", "line", "col", "rule", "name", "message"}
    assert [v["rule"] for v in payload["violations"]] == [
        "SIM001",
        "SIM006",
        "SIM007",
    ]


def test_json_output_clean(clean_file, capsys):
    assert main(["--format", "json", clean_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert payload["count"] == 0


# ---------------------------------------------------------------------------
# file discovery and scoping
# ---------------------------------------------------------------------------

def test_iter_python_files_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("A = 1\n")
    (tmp_path / "pkg" / "b.txt").write_text("not python\n")
    (tmp_path / "top.py").write_text("B = 2\n")
    found = list(iter_python_files([str(tmp_path)]))
    assert [pathlib.Path(p).name for p in found] == ["a.py", "top.py"]


def test_global_exemption_skips_tests_tree():
    assert path_is_globally_exempt("tests/core/test_engine.py")
    assert path_is_globally_exempt("repo/benchmarks/perf/bench_scale.py")
    assert not path_is_globally_exempt("src/repro/core/engine.py")


def test_sim003_scoped_to_scheduling_paths():
    rule = rule_by_id("SIM003")
    assert rule_applies(rule, "src/repro/controller/gc.py")
    assert rule_applies(rule, "src/repro/host/schedulers.py")
    assert rule_applies(rule, "src/repro/core/engine.py")
    assert not rule_applies(rule, "src/repro/analysis/metrics.py")
    assert not rule_applies(rule, "src/repro/core/statistics.py")


def test_sim002_exempts_parallel_executor():
    rule = rule_by_id("SIM002")
    assert not rule_applies(rule, "src/repro/core/parallel.py")
    assert rule_applies(rule, "src/repro/core/engine.py")
    assert rule_applies(rule, "src/repro/lint/cli.py")


# ---------------------------------------------------------------------------
# the repository itself must be clean
# ---------------------------------------------------------------------------

def test_repository_is_lint_clean():
    violations, files_checked, _, errors = lint_paths([str(REPO_ROOT / "src")])
    assert errors == []
    assert files_checked > 50
    assert violations == [], "\n".join(
        f"{v.path}:{v.line}: {v.rule_id} {v.message}" for v in violations
    )


def test_repository_suppressions_name_registered_rules():
    """A suppression naming a retired or misspelled rule id silences
    nothing and would otherwise pass unnoticed."""
    known = {rule.id for rule in ALL_RULES} | {"all"}
    stale = []
    for path in iter_python_files([str(REPO_ROOT / "src")]):
        context = LintContext(path, pathlib.Path(path).read_text())
        named = context.file_suppressions.union(*context.line_suppressions.values())
        stale.extend(f"{path}: {rule_id}" for rule_id in sorted(named - known))
    assert stale == [], "\n".join(stale)


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro.lint", "--list-rules"],
        capture_output=True,
        text=True,
        cwd=str(REPO_ROOT),
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert result.returncode == 0
    assert "SIM001" in result.stdout


def test_framework_documentation_suppresses_nothing():
    """The comments documenting the suppression syntax next to its regex
    must not themselves parse as suppressions of the framework module."""
    path = REPO_ROOT / "src" / "repro" / "lint" / "framework.py"
    context = LintContext(str(path), path.read_text())
    assert context.file_suppressions == set()
    assert context.line_suppressions == {}
