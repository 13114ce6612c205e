"""Derived metrics used by the experiments.

The demo game (paper Section 3) scores configurations by "throughput
[...] while balancing mean latency and latency variability between
different types of IOs"; the helpers here quantify that balance, plus
the fairness question raised in the introduction ("application IOs also
interfere with each other, which raises issues of fairness").
"""

from __future__ import annotations

from typing import Sequence

from repro.core.events import IoType
from repro.core.statistics import StatisticsGatherer


def fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index over per-thread (or per-type) throughputs.

    1.0 means perfectly equal shares; 1/n means one party got all.
    Empty or all-zero inputs yield 1.0 (vacuously fair).
    """
    values = [float(v) for v in values]
    peak = max((abs(v) for v in values), default=0.0)
    if peak == 0.0:
        return 1.0
    # The index is scale-free; scaling to the largest share first keeps
    # the squares of tiny shares from underflowing, which would push
    # the index above 1.
    shares = [v / peak for v in values]
    total = sum(shares)
    return (total * total) / (len(shares) * sum(s * s for s in shares))


def latency_balance(stats: StatisticsGatherer) -> float:
    """How balanced read and write mean latencies are, in (0, 1].

    1.0 means identical means; the metric is min/max of the two means.
    Degenerates to 1.0 when a type has no samples (nothing to balance).
    """
    latency = stats.latency
    read_mean = latency[IoType.READ].mean
    write_mean = latency[IoType.WRITE].mean
    if read_mean <= 0.0 or write_mean <= 0.0:
        return 1.0
    return min(read_mean, write_mean) / max(read_mean, write_mean)


def variability_balance(stats: StatisticsGatherer) -> float:
    """Like :func:`latency_balance` but over latency standard deviations
    (the paper's latency-variability metric)."""
    latency = stats.latency
    read_sd = latency[IoType.READ].stddev
    write_sd = latency[IoType.WRITE].stddev
    if read_sd <= 0.0 or write_sd <= 0.0:
        return 1.0
    return min(read_sd, write_sd) / max(read_sd, write_sd)


def game_score(stats: StatisticsGatherer) -> float:
    """The demonstration-game objective: throughput, discounted by
    imbalance in mean latency and in latency variability between reads
    and writes."""
    return stats.throughput_iops() * latency_balance(stats) * variability_balance(stats)


def mean_retries_per_read(summary: dict) -> float:
    """Average retry-ladder depth per completed application read.

    Feeds on a :meth:`~repro.core.simulation.SimulationResult.summary`
    dictionary; 0.0 when reads never retried (or reliability is off).
    """
    reads = summary.get("completed_reads", 0.0)
    if reads <= 0.0:
        return 0.0
    return summary.get("read_retries", 0.0) / reads


def unrecoverable_read_rate(summary: dict) -> float:
    """Fraction of completed application reads that lost data (ECC and
    parity both exhausted) -- the simulated device's UBER analogue."""
    reads = summary.get("completed_reads", 0.0)
    if reads <= 0.0:
        return 0.0
    return summary.get("uncorrectable_reads", 0.0) / reads
