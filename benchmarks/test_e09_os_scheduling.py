"""E9 -- OS scheduling strategy and queue depth (paper Section 2.2).

"What is the best scheduling strategy (e.g., FIFO, CFQ, priorities)?
How many outstanding IOs should be submitted to the SSD?"

Two sub-experiments:

* **Queue depth sweep** (FIFO): throughput rises with outstanding IOs
  until the device's parallelism is covered, then flattens while
  latency keeps growing -- the classic throughput/latency knee.
* **Fairness**: a deep-queued bulk thread vs a shallow interactive
  thread.  FIFO lets the bulk thread monopolise dispatch slots; the
  CFQ-like FAIR scheduler restores the interactive thread's share.
"""

from repro import GridExperiment, OsSchedulerPolicy, Parameter
from repro.analysis.metrics import fairness_index
from repro.workloads import MixedWorkloadThread, RandomWriterThread, precondition_sequential

from benchmarks.common import bench_config, monotonically_nondecreasing, print_series, run_threads

QUEUE_DEPTHS = [1, 2, 4, 8, 16, 32, 64]


def _qd_workload(config):
    prep = precondition_sequential(config.logical_pages)
    writer = RandomWriterThread("writer", count=4000, depth=64)
    return [prep, (writer, [prep.name])]


def _run_queue_depth_sweep():
    grid = GridExperiment(
        name="E9a: outstanding IOs",
        base_config=bench_config(),
        parameters=[Parameter("queue depth", path="host.max_outstanding")],
        values=[QUEUE_DEPTHS],
        workload=_qd_workload,
    )
    return grid.run()


def _run_fairness(policy: OsSchedulerPolicy):
    config = bench_config()
    config.host.os_scheduler = policy
    config.host.max_outstanding = 8
    bulk = MixedWorkloadThread("bulk", count=6000, read_fraction=0.2, depth=64)
    interactive = MixedWorkloadThread(
        "interactive", count=1200, read_fraction=0.8, depth=2
    )
    result = run_threads(config, [bulk, interactive])
    spans = {}
    for name in ("bulk", "interactive"):
        stats = result.thread_stats[name]
        spans[name] = stats.throughput_iops()
    return fairness_index(list(spans.values())), spans


def run_experiment():
    sweep = _run_queue_depth_sweep()
    fifo_fairness, fifo_spans = _run_fairness(OsSchedulerPolicy.FIFO)
    fair_fairness, fair_spans = _run_fairness(OsSchedulerPolicy.FAIR)
    return sweep, (fifo_fairness, fifo_spans), (fair_fairness, fair_spans)


def test_e09_os_scheduling(benchmark):
    sweep, fifo, fair = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    throughput = sweep.metrics("throughput_iops")
    # Device latency (dispatch -> completion): the queueing that the
    # chosen queue depth actually creates at the SSD.
    latency = sweep.metrics("write_device_mean_ns")
    print_series(
        "E9a throughput/latency vs outstanding IOs",
        [
            [qd, tp, lat / 1e3]
            for qd, tp, lat in zip(QUEUE_DEPTHS, throughput, latency)
        ],
        ["queue depth", "IOPS", "device write mean (us)"],
    )
    print_series(
        "E9b OS scheduler fairness (bulk QD64 vs interactive QD2)",
        [
            ["fifo", fifo[0], fifo[1]["bulk"], fifo[1]["interactive"]],
            ["fair", fair[0], fair[1]["bulk"], fair[1]["interactive"]],
        ],
        ["OS scheduler", "Jain index", "bulk IOPS", "interactive IOPS"],
    )
    # Shape: more outstanding IOs -> more throughput, then a knee...
    assert monotonically_nondecreasing(throughput[:4], tolerance=0.05)
    assert throughput[-1] > 2 * throughput[0]
    # ...while mean latency grows with queue depth.
    assert latency[-1] > 2 * latency[0]
    # Fair queueing improves the interactive thread's share.
    assert fair[0] >= fifo[0]
    assert fair[1]["interactive"] >= fifo[1]["interactive"]
