"""Every metric the benchmark reports, with its unit.

Every workload prints every metric: the end-to-end ones on untraced
runs, the per-layer ones on traced runs.  A per-layer metric a workload
does not exercise reads 0, and the run names those metrics;
``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

WORKLOADS = ("calibrate", "overload", "plan_serve", "live")

#: name -> unit.  The workload's unit of work is a campaign (calibrate),
#: a DES trial (overload), a plan request (plan_serve) or a live item at
#: the reference load (live).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_share": "share",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
}

NODES = ("filter", "expand", "score")
TRACED_LAYERS = ("campaign", "core", "sim", "serving", "planning",
                 "runtime", "kernels")

PER_LAYER = {
    "core.solve_ms": "ms",
    "core.solve_ms.warm": "ms",
    "core.solve_ms.cold": "ms",
    "sim.trial_ms.p50": "ms",
    "sim.trial_ms.tail": "ms",
    "sim.items_per_s": "1/s",
    "sim.fastpath_share": "share",
    "des.events": "count",
    "des.events_per_s": "1/s",
    "campaign.wall_s": "s",
    "campaign.overhead_s": "s",
    "resilience.shed_items": "count",
    "resilience.degraded_s": "s",
    "planning.source_share.hit": "share",
    "planning.source_share.warm": "share",
    "planning.source_share.cold": "share",
    "planning.coalesced": "count",
    "planning.warm_rejects": "count",
    "planning.resolve_ms.hit": "ms",
    "planning.resolve_ms.warm": "ms",
    "planning.resolve_ms.cold": "ms",
    "serving.overhead_ms.p50": "ms",
    "serving.overhead_ms.tail": "ms",
    "planning.lookup_us": "us",
    **{f"runtime.{m}.{n}": u for m, u in (
        ("busy_share", "share"),
        ("wait_share", "share"),
        ("oversleep_us_per_firing", "us"),
        ("occupancy", "share"),
        ("empty_firing_share", "share"),
        ("hwm_over_bv", "ratio"),
    ) for n in NODES},
    **{f"kernels.fire_us.{n}": "us" for n in NODES},
    "runtime.af_ratio": "ratio",
    "runtime.replans": "count",
    "runtime.missed_items": "count",
    "runtime.submit_us": "us",
    "runtime.gen_late_ms.p50": "ms",
    "runtime.gen_late_ms.tail": "ms",
    "runtime.plan_s": "s",
    "host.steal_share": "share",
    "trace.overhead_share": "share",
    "trace.spans": "count",
    **{f"trace.self_s.{layer}": "s" for layer in TRACED_LAYERS},
}
