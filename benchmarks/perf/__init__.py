"""Legacy machine-readable benchmark scripts.

Unlike the pytest-benchmark suites in ``benchmarks/bench_*.py`` (which
time paper-artifact regeneration), each module here runs one subsystem
under load, gates on a correctness property, and writes one
``BENCH_<name>.json`` at the repository root:

- :mod:`benchmarks.perf.control` — learned control vs the planner;
- :mod:`benchmarks.perf.plan_cache` — plan cache / warm-start speedups;
- :mod:`benchmarks.perf.runtime` — live wall-clock executor runs;
- :mod:`benchmarks.perf.serving` — the hardened serving layer;
- :mod:`benchmarks.perf.tenancy` — multi-tenant co-scheduling.

Run one from the repository root, e.g.::

    python -m benchmarks.perf.runtime --smoke

``perfbench/`` is the harness that supersedes these scripts; see its
README for the mapping of their fields onto perfbench metrics.
"""
