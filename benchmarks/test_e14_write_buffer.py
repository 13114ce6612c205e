"""E14 -- Battery-backed-RAM write buffering (paper Section 2.2).

"What is the best usage for RAM or for battery-backed RAM?" / "a
write-buffering module that uses battery-backed RAM to temporarily store
data before it is written on flash pages."

Sweeps the buffer size on a rewrite-heavy (zipf) workload.  Expected
shape: throughput rises and flash program count falls as the buffer
absorbs more rewrites; returns diminish once the hot working set fits.
"""

from repro import GridExperiment, Parameter
from repro.workloads import RandomWriterThread, precondition_sequential

from benchmarks.common import bench_config, monotonically_nondecreasing, print_series

BUFFER_PAGES = [0, 16, 64, 256]


def _workload(config):
    prep = precondition_sequential(config.logical_pages)
    writer = RandomWriterThread("writer", count=6000, depth=16, zipf_theta=0.9)
    return [prep, (writer, [prep.name])]


def run_experiment():
    config = bench_config()
    config.controller.battery_ram_bytes = 4 * 1024 * 1024
    grid = GridExperiment(
        name="E14: write buffer size",
        base_config=config,
        parameters=[Parameter("buffer pages", path="controller.write_buffer_pages")],
        values=[BUFFER_PAGES],
        workload=_workload,
    )
    return grid.run()


def test_e14_write_buffer(benchmark):
    result = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    throughput = result.metrics("throughput_iops")
    programs = [
        run.result.flash_commands.get(("APPLICATION", "PROGRAM"), 0)
        for run in result.runs
    ]
    rows = [
        [pages, tp, flash]
        for pages, tp, flash in zip(BUFFER_PAGES, throughput, programs)
    ]
    print_series(
        "E14 battery-backed write buffer",
        rows,
        ["buffer pages", "IOPS", "app flash programs"],
    )
    # Shape: bigger buffers absorb more rewrites -> fewer flash programs.
    assert programs[-1] < programs[0]
    assert all(b <= a for a, b in zip(programs, programs[1:]))
    # And the largest buffer clearly outperforms no buffer.
    assert throughput[-1] > 1.1 * throughput[0]
