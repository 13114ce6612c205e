"""Documentation consistency checks.

DESIGN.md promises a bench per experiment and a module per subsystem;
these tests keep the documents honest as the code evolves.
"""

import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _read(name):
    with open(os.path.join(ROOT, name)) as handle:
        return handle.read()


class TestDesignDocument:
    def test_every_indexed_bench_file_exists(self):
        design = _read("DESIGN.md")
        benches = re.findall(r"`benchmarks/(test_e\d+\w*\.py)`", design)
        assert benches, "DESIGN.md lost its experiment index"
        for bench in benches:
            assert os.path.exists(os.path.join(ROOT, "benchmarks", bench)), bench

    def test_every_indexed_module_importable(self):
        design = _read("DESIGN.md")
        modules = set(re.findall(r"`(repro\.[a-z_.]+)`", design))
        assert modules
        import importlib

        for module in modules:
            importlib.import_module(module)

    def test_layout_names_only_existing_modules(self):
        block = _read("DESIGN.md").split("## 5. Repository layout")[1].split("```")[1]
        lines = block.splitlines()
        package, named = "", []
        for line in lines[lines.index("src/repro/") + 1:]:
            if not line.startswith(" "):
                break
            tokens = line.split()
            if tokens[0].endswith("/"):
                package, tokens = tokens[0], tokens[1:]
            named += [package + token for token in tokens if token.endswith(".py")]
        assert named, "DESIGN.md lost its source layout"
        missing = [
            name for name in named
            if not os.path.exists(os.path.join(ROOT, "src", "repro", name))
        ]
        assert missing == []

    def test_experiments_document_covers_every_bench(self):
        experiments = _read("EXPERIMENTS.md")
        bench_files = sorted(
            name
            for name in os.listdir(os.path.join(ROOT, "benchmarks"))
            if re.match(r"test_e\d+", name)
        )
        for name in bench_files:
            experiment_id = re.match(r"test_e(\d+)", name).group(1)
            assert f"E{int(experiment_id)} " in experiments or (
                f"E{int(experiment_id)}" in experiments
            ), f"EXPERIMENTS.md missing E{int(experiment_id)} ({name})"

    def test_readme_mentions_all_entry_points(self):
        readme = _read("README.md")
        for needle in ("pytest benchmarks/", "pytest tests/", "examples/quickstart.py"):
            assert needle in readme


class TestMainModule:
    def test_python_dash_m_repro_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--ops", "400", "--channels", "2"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert proc.returncode == 0, proc.stderr
        assert "throughput" in proc.stdout

    def test_help_lists_knobs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert "--ftl" in proc.stdout
