"""CI runs every test file in exactly one job.

The ``claims`` job runs every paper-claim experiment exactly once:
``.github/workflows/ci.yml`` lists the ``benchmarks/test_e*.py`` files
explicitly, spread over three shards.  A new experiment file that no
shard names, a file named by two shards, or one that another job runs
as well fails here.  The unit and integration suite under ``tests/``
runs in the ``tests`` job only; a smoke job that re-runs part of it
fails here too.  A perf smoke step names the file it writes, so it
never replaces a committed full-run ``BENCH_*.json`` report.  Each claims
shard logs every experiment's wall-clock time (``--durations=0``), the
figure the shard balance and the claims-suite time are read from.
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


CLAIMS_FILE = r"benchmarks/test_e\d+_\w+\.py"


def _jobs() -> dict[str, str]:
    """Every CI job's text, by job name."""
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    jobs_text = workflow[workflow.index("\njobs:\n"):]
    heads = list(re.finditer(r"\n  ([\w-]+):\n", jobs_text))
    ends = [head.start() for head in heads[1:]] + [len(jobs_text)]
    return {head.group(1): jobs_text[head.start(): end] for head, end in zip(heads, ends)}


def _steps(job: str, command: str) -> list[str]:
    """The text of every step of ``job`` whose code mentions
    ``command``, without its comment lines."""
    steps = []
    for step in re.split(r"\n      - ", job):
        code = "\n".join(
            line for line in step.splitlines() if not line.lstrip().startswith("#")
        )
        if command in code:
            steps.append(code)
    return steps


def test_every_claims_file_runs_in_exactly_one_shard():
    job = _jobs()["claims"]
    listed = Counter(re.findall(CLAIMS_FILE, job))
    on_disk = {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "benchmarks").glob("test_e*.py")
    }
    assert len(on_disk) == 20
    assert set(listed) == on_disk
    assert all(count == 1 for count in listed.values()), listed
    assert len(re.findall(r"- shard: \d+", job)) == 3


def test_claims_shards_log_every_duration():
    runs = _steps(_jobs()["claims"], "pytest")
    assert len(runs) == 1
    assert "--durations=0" in runs[0].split()


def test_no_other_job_runs_a_claims_file():
    elsewhere = {
        name: re.findall(CLAIMS_FILE, text)
        for name, text in _jobs().items()
        if name != "claims"
    }
    assert not any(elsewhere.values()), elsewhere


def test_only_the_tests_job_runs_the_test_suite():
    elsewhere = {
        name: [
            path
            for step in _steps(text, "pytest")
            for path in re.findall(r"(?<![\w./])tests/\S*", step)
        ]
        for name, text in _jobs().items()
        if name != "tests"
    }
    assert not any(elsewhere.values()), elsewhere


def test_every_perf_script_run_names_its_output():
    runs = [
        step
        for text in _jobs().values()
        for step in _steps(text, "benchmarks/perf/bench_")
    ]
    assert len(runs) == 3
    missing = [step for step in runs if not re.search(r"--output \S+\.json", step)]
    assert not missing, missing
