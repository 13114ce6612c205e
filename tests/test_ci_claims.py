"""The CI ``claims`` job runs every paper-claim experiment exactly once.

``.github/workflows/ci.yml`` lists the ``benchmarks/test_e*.py`` files
explicitly, spread over three shards.  A new experiment file that no
shard names, or a file named by two shards, fails here.
"""

import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _claims_job() -> str:
    workflow = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
    start = workflow.index("\n  claims:\n")
    following = re.search(r"\n  [\w-]+:\n", workflow[start + 1:])
    return workflow[start: start + 1 + following.start()] if following else workflow[start:]


def test_every_claims_file_runs_in_exactly_one_shard():
    job = _claims_job()
    listed = Counter(re.findall(r"benchmarks/test_e\d+_\w+\.py", job))
    on_disk = {
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "benchmarks").glob("test_e*.py")
    }
    assert len(on_disk) == 20
    assert set(listed) == on_disk
    assert all(count == 1 for count in listed.values()), listed
    assert len(re.findall(r"- shard: \d+", job)) == 3
