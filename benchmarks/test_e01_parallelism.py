"""E1 -- Throughput vs SSD parallelism (paper Fig. 1 / intro question 1).

"How does SSD parallelism impact performance?"  Sweeps the number of
channels (2 LUNs each) under a parallel random-write workload and
reports throughput.  Expected shape: near-linear scaling while the
workload offers enough concurrency, flattening once the queue depth or
the channel bus saturates.
"""

from repro import GridExperiment, Parameter
from repro.workloads import RandomWriterThread

from benchmarks.common import bench_config, monotonically_nondecreasing, print_series

CHANNELS = [1, 2, 4, 8]


def _set_channels(config, value):
    config.geometry.channels = value


def _workload(config):
    prep_count = config.logical_pages
    from repro.workloads import precondition_sequential

    prep = precondition_sequential(prep_count)
    writer = RandomWriterThread("writer", count=4000, depth=32)
    return [prep, (writer, [prep.name])]


def run_experiment():
    grid = GridExperiment(
        name="E1: throughput vs channels",
        base_config=bench_config(),
        parameters=[Parameter("channels", setter=_set_channels)],
        values=[CHANNELS],
        workload=_workload,
    )
    return grid.run()


def test_e01_parallelism_scaling(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    throughput = result.metrics("throughput_iops")
    print_series(
        "E1 throughput vs channels",
        [
            [channels, tp, tp / throughput[0]]
            for channels, tp in zip(CHANNELS, throughput)
        ],
        ["channels", "write IOPS", "speedup vs 1ch"],
    )
    # Shape: throughput grows with parallelism...
    assert monotonically_nondecreasing(throughput, tolerance=0.05)
    # ...and 8 channels beat 1 channel by a clearly super-2x factor.
    assert throughput[-1] > 2.5 * throughput[0]
