"""Check layerbench summary digests against a saved fixture.

A layerbench run prints a report line whose ``summary_sha256`` maps each
sub-seed to the SHA-256 of its serialized simulation summary.  A change
meant only to speed the simulator up must leave every digest as it was;
this script compares the report lines of saved layerbench outputs with
``tests/fixtures/layerbench_digests.json`` and fails on any difference.

Usage::

    python3 layerbench/run.py --workload page_read --seed 1 --seconds 2 \\
        --trace 0 | tee layerbench-page_read.out
    ...
    python benchmarks/perf/check_layerbench_digests.py layerbench-*.out
    # regenerate the fixture from the same outputs
    python benchmarks/perf/check_layerbench_digests.py --write layerbench-*.out

Exits 1 on a differing or missing digest, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

FIXTURE = Path(__file__).resolve().parents[2] / "tests" / "fixtures" / "layerbench_digests.json"

#: The run every fixture entry comes from (``{workload}`` filled in).
COMMAND = "python3 layerbench/run.py --workload {workload} --seed 1 --seconds 2 --trace 0"
SEED = 1


def read_report(path: Path) -> dict:
    """The ``report`` object of a saved layerbench output."""
    for line in path.read_text().splitlines():
        if line.startswith('{"report"'):
            return json.loads(line)["report"]
    raise ValueError(f"{path}: no layerbench report line")


def collect(paths: list[Path]) -> dict[str, dict[str, str]]:
    """Workload -> sub-seed -> digest, from the reports of ``paths``."""
    digests: dict[str, dict[str, str]] = {}
    for path in paths:
        report = read_report(path)
        if report["seed"] != SEED:
            raise ValueError(f"{path}: seed {report['seed']}, the fixture uses {SEED}")
        digests[report["workload"]] = report["summary_sha256"]
    return digests


def compare(expected: dict[str, dict[str, str]], actual: dict[str, dict[str, str]]) -> list[str]:
    """Every difference between the fixture's digests and the run's."""
    problems = []
    for workload in sorted(expected):
        if workload not in actual:
            problems.append(f"{workload}: no output")
            continue
        want, got = expected[workload], actual[workload]
        for sub_seed in sorted(set(want) | set(got), key=int):
            if want.get(sub_seed) != got.get(sub_seed):
                problems.append(
                    f"{workload} sub-seed {sub_seed}: expected {want.get(sub_seed)}, "
                    f"got {got.get(sub_seed)}"
                )
    for workload in sorted(set(actual) - set(expected)):
        problems.append(f"{workload}: not in the fixture")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outputs", nargs="+", type=Path, help="saved layerbench outputs")
    parser.add_argument("--write", action="store_true", help="regenerate the fixture")
    args = parser.parse_args(argv)
    actual = collect(args.outputs)
    if args.write:
        fixture = {"command": COMMAND, "summary_sha256": actual}
        FIXTURE.write_text(json.dumps(fixture, indent=2, sort_keys=True) + "\n")
        print(f"wrote {len(actual)} workloads to {FIXTURE}")
        return 0
    expected = json.loads(FIXTURE.read_text())["summary_sha256"]
    problems = compare(expected, actual)
    for problem in problems:
        print(f"digest mismatch: {problem}", file=sys.stderr)
    if problems:
        return 1
    print(f"layerbench digests match for {', '.join(sorted(actual))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
