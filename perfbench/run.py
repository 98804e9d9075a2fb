"""Run one benchmark workload from a seed and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload calibrate --seed 1 --seconds 20 --trace 0

Workloads: ``calibrate``, ``overload``, ``plan_serve`` and ``live``
(see ``perfbench/README.md``).  The run builds its inputs from
``--seed``, measures for about ``--seconds`` seconds after set-up,
checks the program's outputs, prints a human-readable report and ends
with one JSON line::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` measures
half the time untraced and half with spans recorded around every call
into the program, then reports the per-layer metrics, the tracing
overhead (the traced median latency over the untraced one, minus one),
and writes the spans to ``.perfbench/`` in the checkout.

Exit status: 0 when every check passed, 1 when a check failed or the
workload raised, 2 when the program cannot be imported.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Import the benchmark as a package and the program from the checkout's
# sources, never from this directory's own module names.
sys.path[:1] = [str(ROOT), str(ROOT / "src")]

from perfbench import catalog  # noqa: E402
from perfbench.common import (  # noqa: E402
    cpu_ticks,
    peak_rss_mb,
    steal_share,
)
from perfbench.stats import Tracer, median, self_time_by_layer  # noqa: E402

TRACE_DIR = ROOT / ".perfbench"


def _end_to_end(state, m) -> dict:
    return {
        "setup_s": median(state.setup_samples),
        "peak_rss_mb": peak_rss_mb(),
        "success_share": m.success,
        "throughput_per_s": m.throughput,
        "latency_p50_ms": m.p50_ms,
        "latency_tail_ms": m.tail.value,
    }


def _write_spans(workload: str, seed: int, tracer: Tracer) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    path.write_text(json.dumps([
        {"id": s.id, "parent": s.parent, "name": s.name,
         "request": s.request, "start": s.start, "end": s.end}
        for s in tracer.spans
    ]))
    return path


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    module = importlib.import_module(f"perfbench.{workload}")
    t0 = time.perf_counter()
    state = module.prepare(seed)
    print(f"set-up: {time.perf_counter() - t0:.2f}s for "
          f"{len(state.setup_samples)} repetitions")
    tracer = Tracer(trace)
    ticks = cpu_ticks()
    if trace:
        untraced = module.measure(state, seconds / 2, Tracer(False))
        m = module.measure(state, seconds / 2, tracer)
    else:
        m = module.measure(state, seconds, tracer)
    steal = steal_share(ticks, cpu_ticks())
    print(f"host: {100 * steal:.1f}% of CPU time went to other guests "
          "while measuring")
    checks = module.check(state, m, tracer)
    for note in m.notes:
        print(note)
    print(f"latency: p50 {m.p50_ms:.4g} ms, p{100 * m.tail.q:g} "
          f"{m.tail.value:.4g} ms over {m.tail.n} samples "
          f"({m.tail.beyond} beyond)")
    if trace:
        measured = module.layers(state, m, tracer)
        unknown = set(measured) - set(catalog.PER_LAYER)
        if unknown:
            raise KeyError(f"metrics missing from the catalog: {unknown}")
        values = {k: measured.get(k, 0) for k in catalog.PER_LAYER}
        overhead = m.p50_ms / untraced.p50_ms - 1.0
        by_layer = self_time_by_layer(tracer.spans)
        values.update({
            "host.steal_share": steal,
            "trace.overhead_share": overhead,
            "trace.spans": len(tracer.spans),
            **{f"trace.self_s.{layer}": by_layer.get(layer, 0.0)
               for layer in catalog.TRACED_LAYERS},
        })
        print(f"tracing: p50 {untraced.p50_ms:.6g} ms untraced vs "
              f"{m.p50_ms:.6g} ms traced ({100 * overhead:+.2f}%), "
              f"{len(tracer.spans)} spans -> "
              f"{_write_spans(workload, seed, tracer)}")
        units = catalog.PER_LAYER
        unmeasured = [k for k in units if k not in measured
                      and k.split(".")[0] not in ("trace", "host")]
        print(f"not exercised by {workload}, reported as 0: "
              f"{', '.join(unmeasured)}")
    else:
        values, units = _end_to_end(state, m), catalog.END_TO_END
        print(f"set-up samples: {[round(s, 3) for s in state.setup_samples]}")
    failed_checks = [c for c in checks if not c.ok]
    print(f"checks: {len(checks) - len(failed_checks)}/{len(checks)} passed")
    for c in failed_checks:
        print(f"  FAILED {c.name}: {c.detail}")
    return {
        "correct": not failed_checks,
        "attempted": int(m.attempted),
        "failed": int(m.failed),
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=catalog.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: "
              f"{exc}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
