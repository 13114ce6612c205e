"""The experimental-suite API (paper Section 2.3).

"EagleTree contains an experimental suite API, which consists of
experiment templates.  An experiment template takes (1) an SSD parameter
or policy (2) a strategy for how to vary it in an experiment, and (3) a
workload definition.  It runs an experiment and produces a comprehensive
amount of visual statistical output."

A template is a one-axis :class:`GridExperiment`: a base configuration,
one :class:`Parameter` (a dotted configuration path or a custom setter),
its values and a workload factory, i.e. ``GridExperiment(name, base,
[parameter], [values], workload)``.  More axes give the exhaustive,
full-factorial mode of Section 2.1.  Either way it runs one simulation
per cell and returns a :class:`GridResult` with metric series, tables
and CSV export; run labels are value tuples (``(4,)`` for a one-axis
sweep).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from repro.core.config import SimulationConfig, set_by_path
from repro.core.parallel import ResultSource, RunSpec, SweepExecutor, WorkerCount
from repro.core.simulation import SimulationResult
from repro.core.statistics import stable_number_text


def _resolve_cache(cache: "object") -> Optional[ResultSource]:
    """Accept a ready-made cache object or a directory path.

    A string/``os.PathLike`` constructs a
    :class:`repro.service.cache.ResultCache` rooted there (imported
    lazily: the core never depends on the service layer unless a cache
    is actually requested).  Anything exposing ``lookup``/``store`` is
    used as-is.
    """
    if cache is None:
        return None
    if hasattr(cache, "lookup") and hasattr(cache, "store"):
        return cache  # type: ignore[return-value]
    import os

    if isinstance(cache, (str, os.PathLike)):
        from repro.service.cache import ResultCache

        return ResultCache(cache)
    raise TypeError(
        f"cache must be a ResultCache, a directory path or None (got {cache!r})"
    )

#: Builds the threads of the workload for one run.  Receives the run's
#: configuration so it can size itself to the logical space; returns
#: either threads or (thread, depends_on) pairs.
WorkloadFactory = Callable[[SimulationConfig], Iterable]


@dataclass(frozen=True)
class Parameter:
    """The swept parameter: a name plus how to apply a value.

    ``path`` is a dotted configuration path (e.g.
    ``"controller.gc_greediness"``); alternatively ``setter`` receives
    the config and the value for parameters that are not a single field
    (e.g. "channels, keeping total LUNs constant").
    """

    name: str
    path: Optional[str] = None
    setter: Optional[Callable[[SimulationConfig, object], None]] = None

    def apply(self, config: SimulationConfig, value: object) -> None:
        if self.setter is not None:
            self.setter(config, value)
        elif self.path is not None:
            set_by_path(config, self.path, value)
        else:
            raise ValueError(f"parameter {self.name!r} has neither path nor setter")


class GridRun:
    """One cell of a multi-parameter grid."""

    def __init__(self, values: tuple, config: SimulationConfig, result: SimulationResult) -> None:
        self.values = values
        self.config = config
        self.result = result

    def metric(self, name: str) -> float:
        summary = self.result.summary()
        if name not in summary:
            raise KeyError(f"unknown metric {name!r}; available: {sorted(summary)}")
        return summary[name]


class GridResult:
    """A full factorial sweep over one or more parameters."""

    def __init__(self, name: str, parameters: Sequence[Parameter], runs: "list[GridRun]") -> None:
        self.name = name
        self.parameters = list(parameters)
        self.runs = runs

    def best(self, metric: str, maximize: bool = True) -> GridRun:
        chooser = max if maximize else min
        return chooser(self.runs, key=lambda run: run.metric(metric))

    def slice(self, parameter_name: str, value: object) -> "list[GridRun]":
        """Runs where the named parameter took ``value``."""
        index = self._index_of(parameter_name)
        return [run for run in self.runs if run.values[index] == value]

    def series(self, metric: str) -> list[tuple[tuple, float]]:
        return [(run.values, run.metric(metric)) for run in self.runs]

    def metrics(self, metric: str) -> list[float]:
        """The metric of every run, in grid order."""
        return [run.metric(metric) for run in self.runs]

    def table(self, metrics: Sequence[str]) -> str:
        from repro.analysis.reporting import format_table

        headers = [p.name for p in self.parameters] + list(metrics)
        rows = [
            list(run.values) + [run.metric(metric) for metric in metrics]
            for run in self.runs
        ]
        return format_table(headers, rows, title=self.name)

    def _index_of(self, parameter_name: str) -> int:
        for index, parameter in enumerate(self.parameters):
            if parameter.name == parameter_name:
                return index
        raise KeyError(f"no parameter named {parameter_name!r}")

    def to_csv(self, path: str, metrics: Optional[Sequence[str]] = None) -> None:
        """Export the grid to CSV (all summary metrics by default)."""
        import csv

        if metrics is None:
            metrics = sorted(self.runs[0].result.summary()) if self.runs else []
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow([p.name for p in self.parameters] + list(metrics))
            for run in self.runs:
                # Metric cells go through the canonical number formatter
                # so exports are byte-stable across runs and platforms
                # (cache hits must reproduce a cold export exactly).
                writer.writerow(
                    list(run.values)
                    + [stable_number_text(run.metric(metric)) for metric in metrics]
                )


class GridExperiment:
    """Full factorial sweep over one or more parameters: one axis is an
    experiment template (Section 2.3), several are the exhaustive
    design-space exploration mode ("hundreds of experiments, in a
    tractable way", Section 2.1)."""

    def __init__(
        self,
        name: str,
        base_config: SimulationConfig,
        parameters: Sequence[Parameter],
        values: Sequence[Sequence],
        workload: WorkloadFactory,
        max_time_ns: Optional[int] = None,
    ) -> None:
        if len(parameters) != len(values):
            raise ValueError("one value list per parameter required")
        if not parameters:
            raise ValueError("at least one parameter required")
        self.name = name
        self.base_config = base_config
        self.parameters = list(parameters)
        self.values = [list(axis) for axis in values]
        self.workload = workload
        self.max_time_ns = max_time_ns

    def combinations(self) -> list[tuple]:
        import itertools

        return list(itertools.product(*self.values))

    def specs(self) -> list[RunSpec]:
        """The grid materialised as one :class:`RunSpec` per cell, in
        grid order -- the unit the executor, the cache and the
        experiment service all operate on."""
        specs = []
        for index, combination in enumerate(self.combinations()):
            config = self.base_config.copy()
            for parameter, value in zip(self.parameters, combination):
                parameter.apply(config, value)
            specs.append(
                RunSpec(
                    config=config,
                    workload=self.workload,
                    max_time_ns=self.max_time_ns,
                    index=index,
                    label=combination,
                )
            )
        return specs

    def run(
        self,
        progress: Optional[Callable[[tuple, SimulationResult], None]] = None,
        workers: WorkerCount = 1,
        cache: Optional[object] = None,
    ) -> GridResult:
        """Run one simulation per grid cell.

        ``workers > 1`` fans the cells out over a process pool (see
        :class:`repro.core.parallel.SweepExecutor`); ``workers="auto"``
        uses one worker per CPU (so a 1-CPU box falls back to the exact
        serial path).  Results come back in grid order either way, and
        ``progress`` fires in grid order.  ``cache`` -- a
        :class:`repro.service.cache.ResultCache` or a cache-directory
        path -- serves previously computed cells from the on-disk store
        and persists fresh ones, so re-running a grid only simulates
        invalidated cells.
        """
        specs = self.specs()
        executor = SweepExecutor(workers=workers)
        results = executor.map(
            specs,
            progress=(
                None
                if progress is None
                else lambda spec, result: progress(spec.label, result)
            ),
            cache=_resolve_cache(cache),
        )
        runs = [
            GridRun(spec.label, spec.config, result)
            for spec, result in zip(specs, results)
        ]
        return GridResult(self.name, self.parameters, runs)
