"""Performance benchmarks for the simulator infrastructure.

Unlike the ``benchmarks/test_eNN_*`` experiment benchmarks (which
reproduce the paper's figures), the scripts in this package measure the
*infrastructure*: the experiment service's result cache
(``bench_cache.py``), device-state memory at scale (``bench_scale.py``)
and overload robustness (``bench_overload.py``).  Each writes a small
JSON report (``BENCH_cache.json`` / ``BENCH_scale.json`` /
``BENCH_overload.json``) at the repo root so runs can be compared across
machines and commits.  Per-layer simulator throughput is measured by
``layerbench/run.py``.
"""
