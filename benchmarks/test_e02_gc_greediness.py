"""E2 -- The GC Greediness trade-off (paper Section 2.2, GC).

"It is desirable to wait as long as possible before performing
garbage-collection [...] On the other hand, GC must not occur so late
that the FTL actually runs out of available space."

Sweeps the paper's GC Greediness parameter (free blocks maintained per
LUN) under steady-state random overwrites.  Expected shape: higher
greediness collects earlier, so victims carry more live pages -- write
amplification rises and sustained throughput falls; low greediness wins
on throughput but leans on a thinner free-space cushion (visible as a
burstier latency tail).
"""

from repro import GridExperiment, Parameter
from repro.workloads import RandomWriterThread, precondition_sequential

from benchmarks.common import bench_config, monotonically_nondecreasing, print_series

GREEDINESS = [1, 2, 4, 6, 8]


def _workload(config):
    prep = precondition_sequential(config.logical_pages)
    writer = RandomWriterThread("writer", count=6000, depth=16)
    return [prep, (writer, [prep.name])]


def run_experiment():
    config = bench_config()
    # Keep the sweep feasible at greediness 8 (see config validation).
    config.controller.overprovisioning = 0.35
    grid = GridExperiment(
        name="E2: GC greediness",
        base_config=config,
        parameters=[Parameter("gc_greediness", path="controller.gc_greediness")],
        values=[GREEDINESS],
        workload=_workload,
    )
    return grid.run()


def test_e02_gc_greediness_tradeoff(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    waf = result.metrics("write_amplification")
    throughput = result.metrics("throughput_iops")
    p99 = result.metrics("write_p99_ns")
    print_series(
        "E2 GC greediness trade-off",
        [
            [g, tp, w, tail / 1e6]
            for g, tp, w, tail in zip(GREEDINESS, throughput, waf, p99)
        ],
        ["greediness", "write IOPS", "write amp.", "write p99 (ms)"],
    )
    # Shape: eager GC relocates at least as much as lazy GC...
    assert monotonically_nondecreasing(waf, tolerance=0.05)
    # ...and sustained throughput does not improve with eagerness.
    assert throughput[0] >= throughput[-1] * 0.95
    assert waf[-1] > waf[0]
