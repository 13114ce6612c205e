"""Module-level grid and workload builders for the service entry points.

The CLI (``python -m repro.service``), the cache benchmark and the CI
smoke job all need workload factories that are (a) picklable for
``workers > 1`` and (b) *cacheable* -- carrying a stable
``module:qualname`` identity for :mod:`repro.core.canonical`.  Defining
them here (instead of inside ``__main__`` modules, whose name changes
with the entry point) gives every caller the same identities, so a grid
warmed by the benchmark is a cache hit for the CLI and vice versa.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from repro.core.config import SimulationConfig, demo_config, small_config
from repro.core.experiments import GridExperiment, Parameter
from repro.core.parallel import RunSpec
from repro.host.interface import temperature_hint
from repro.workloads import (
    MixedWorkloadThread,
    RandomWriterThread,
    precondition_sequential,
)

__all__ = [
    "demo_workload",
    "grid_manifest",
    "grid_specs",
    "mixed_workload",
    "parse_axis",
    "specs_from_manifest",
]


def mixed_workload(
    config: SimulationConfig,
    ios: int = 2000,
    read_fraction: float = 0.5,
    depth: int = 16,
) -> list:
    """The canonical sweep workload: a mixed reader/writer, sized by
    ``functools.partial`` so the IO count is part of the cache key."""
    return [
        MixedWorkloadThread("mix", count=ios, read_fraction=read_fraction, depth=depth)
    ]


def demo_workload(
    config: SimulationConfig,
    kind: str = "mixed",
    ops: int = 20_000,
    depth: int = 16,
) -> list:
    """The demo console's workloads, service-shaped: preconditioned
    sequential fill, then the selected application thread.

    ``kind`` is one of ``mixed`` (50/50 read/write), ``writes`` (random
    writers) or ``hotcold`` (zipf-skewed writes, temperature-hinted when
    the open interface is on).  Closures created *inside* the factory
    are fine -- the factory body runs in the worker, only its identity
    and arguments are hashed/pickled.
    """
    prep = precondition_sequential(config.logical_pages)
    if kind == "mixed":
        app = MixedWorkloadThread("app", count=ops, read_fraction=0.5, depth=depth)
    elif kind == "writes":
        app = RandomWriterThread("app", count=ops, depth=depth)
    elif kind == "hotcold":
        hot_span = config.logical_pages // 10

        def hint_fn(io_type, lpn):
            return temperature_hint(lpn < hot_span)

        app = RandomWriterThread(
            "app", count=ops, depth=depth, zipf_theta=0.9, hint_fn=hint_fn
        )
    else:
        raise ValueError(f"unknown demo workload {kind!r}")
    return [prep, (app, [prep.name])]


def parse_axis(text: str) -> tuple[str, list]:
    """Parse one ``--axis path=v1,v2,...`` argument.

    Values parse as int, then float, then stay strings; the path is a
    dotted configuration path (``controller.gc_greediness``).
    """
    path, separator, tail = text.partition("=")
    if not separator or not path or not tail:
        raise ValueError(f"axis must look like path=v1,v2,... (got {text!r})")
    values: list = []
    for token in tail.split(","):
        token = token.strip()
        try:
            values.append(int(token))
            continue
        except ValueError:
            pass
        try:
            values.append(float(token))
            continue
        except ValueError:
            pass
        values.append(token)
    return path, values


def grid_manifest(
    axes: Sequence[tuple[str, Sequence]],
    *,
    ios: int = 2000,
    base: str = "small",
    seed: int = 42,
    max_time_ns: Optional[int] = None,
) -> dict:
    """A JSON-able description of a :func:`grid_specs` grid.

    Stored in the job manifest so ``python -m repro.service resume
    <job>`` can rebuild the exact spec list in a fresh process (see
    :func:`specs_from_manifest`).
    """
    return {
        "kind": "grid",
        "axes": [[path, list(values)] for path, values in axes],
        "ios": ios,
        "base": base,
        "seed": seed,
        "max_time_ns": max_time_ns,
    }


def specs_from_manifest(manifest: dict) -> list[RunSpec]:
    """Rebuild the spec list described by :func:`grid_manifest`.

    The round trip is exact: ``resume`` compares the rebuilt specs'
    cache keys with the ones the job manifest recorded before any cell
    runs, so drift here fails loudly rather than silently resuming the
    wrong experiment.
    """
    if manifest.get("kind") != "grid":
        raise ValueError(
            f"cannot rebuild specs from manifest kind {manifest.get('kind')!r}"
        )
    axes = [(str(path), list(values)) for path, values in manifest["axes"]]
    max_time_ns = manifest.get("max_time_ns")
    return grid_specs(
        axes,
        ios=int(manifest.get("ios", 2000)),
        base=str(manifest.get("base", "small")),
        seed=int(manifest.get("seed", 42)),
        max_time_ns=int(max_time_ns) if max_time_ns is not None else None,
    )


def grid_specs(
    axes: Sequence[tuple[str, Sequence]],
    *,
    ios: int = 2000,
    base: str = "small",
    seed: int = 42,
    max_time_ns: Optional[int] = None,
) -> list[RunSpec]:
    """Materialise a full-factorial grid over dotted config paths.

    ``axes`` is ``[(path, values), ...]``; the cells are the
    :class:`~repro.core.experiments.GridExperiment` specs over one
    ``Parameter(path, path=path)`` per axis, in axis-major order.  The
    base configuration is ``small`` or ``demo``.
    """
    base_config = small_config() if base == "small" else demo_config()
    base_config.seed = seed
    return GridExperiment(
        "grid",
        base_config,
        [Parameter(path, path=path) for path, _ in axes],
        [values for _, values in axes],
        functools.partial(mixed_workload, ios=ios),
        max_time_ns=max_time_ns,
    ).specs()
