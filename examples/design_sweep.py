"""Design-space exploration with the experiment suite (paper Section 2.3).

"An experiment template takes (1) an SSD parameter or policy (2) a
strategy for how to vary it in an experiment, and (3) a workload
definition.  It runs an experiment and produces a comprehensive amount
of visual statistical output."

A template is a one-axis ``GridExperiment``.  This example sweeps the GC
Greediness parameter under steady-state random writes and prints the
table plus ASCII charts of the resulting throughput /
write-amplification / tail-latency series -- a complete, tractable
design-space exploration in a few seconds of wall-clock time.

Run with::

    python examples/design_sweep.py
    python examples/design_sweep.py --workers 4   # one process per core
"""

import argparse

from repro import GridExperiment, Parameter, demo_config
from repro.analysis.reporting import ascii_chart
from repro.workloads import RandomWriterThread, precondition_sequential


def workload(config):
    prep = precondition_sequential(config.logical_pages)
    writer = RandomWriterThread("writer", count=8000, depth=16)
    return [prep, (writer, [prep.name])]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for the sweep (default: 1, serial)",
    )
    args = parser.parse_args()

    base = demo_config()
    base.controller.overprovisioning = 0.3  # room for the eager end

    grid = GridExperiment(
        name="GC greediness under steady-state random writes",
        base_config=base,
        parameters=[Parameter("greediness", path="controller.gc_greediness")],
        values=[[1, 2, 4, 8, 12]],
        workload=workload,
    )

    mode = "serially" if args.workers == 1 else f"on {args.workers} workers"
    print(f"running 5 simulations {mode} ...")
    result = grid.run(
        progress=lambda values, r: print(
            f"  greediness={values[0]}: {r.stats.throughput_iops():,.0f} IOPS, "
            f"WAF {r.stats.write_amplification():.2f}"
        ),
        workers=args.workers,
    )

    print()
    print(result.table(["throughput_iops", "write_amplification", "write_p99_ns"]))

    for metric, title in [
        ("throughput_iops", "throughput (IOPS) vs greediness"),
        ("write_amplification", "write amplification vs greediness"),
    ]:
        # ascii_chart wants scalar x: unpack the one-axis value tuples.
        series = [(value, y) for (value,), y in result.series(metric)]
        print()
        print(ascii_chart(series, title=title))

    best = result.best("throughput_iops")
    print(f"\nbest throughput at greediness={best.values[0]} "
          f"({best.metric('throughput_iops'):,.0f} IOPS)")


if __name__ == "__main__":
    main()
