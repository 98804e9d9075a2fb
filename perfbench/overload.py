"""Workload ``overload``: the R1 degraded-mode recipe, serial and in-process.

The recipe of ``experiments/overload.py`` on the v=8 three-stage model of
the ``synthetic`` app (1 ms services), where the event loop does real
work (at v=128 it barely runs): plan at 70% load, size every queue at
1.25x the high-water mark of an unbounded run, then replay the stream
with a 2x and a 3x mid-stream ``ArrivalBurst`` under each shed policy.
Bounded queues force the event path, so ``des``, the event-path ``sim``
and ``resilience`` do the work while the fast path and the campaign
runner do none.

The recipe also attaches a ``DeadlineWatchdog``.  On this model that
crashes the simulator: ``EnforcedWaitsSimulator._complete`` takes the
minimum slack over the tail's outputs, and a tail firing that emits no
outputs raises ``ValueError`` (zero-size reduction).  The watchdog is
therefore left off until that defect is fixed, and
``resilience.degraded_s`` reads 0.

The app, its plan and the queue bound are fixed program configuration.
The seed picks the trials' gain-sampling seeds: each repetition of the
campaign uses the next one, so a run's figures average over many
streams, and the check re-runs the first campaign to compare counts.
"""

from __future__ import annotations

import math
import time
import traceback
from dataclasses import dataclass

import numpy as np

from perfbench.common import (
    SETUP_REPEATS,
    Check,
    Measured,
    another,
    import_seconds,
)
from perfbench.stats import campaign_overhead, median, tail

APP_SEED = 0
VECTOR_WIDTH = 8
SERVICE_S = 0.001
UTILIZATION = 0.7
N_ITEMS = 10_000
FACTORS = (2.0, 3.0)
POLICIES = ("drop-newest", "drop-oldest", "deadline-aware")
IMPORTS = ["repro.runtime.kernels", "repro.sim.enforced", "repro.resilience"]


@dataclass
class State:
    seed_base: int
    plan: object
    capacity: int
    setup_samples: list


def _plan():
    from repro.planning.cache import PlanCache
    from repro.runtime.kernels import build_workload, plan_runtime

    workload = build_workload("synthetic", seed=APP_SEED)
    for kernel in workload.kernels:
        kernel.nominal_service = SERVICE_S
    return plan_runtime(workload, vector_width=VECTOR_WIDTH,
                        utilization=UTILIZATION, cache=PlanCache(),
                        seed=APP_SEED)


def _queue_bound(plan, seed: int) -> int:
    """1.25x the high-water mark of an unbounded run at the planned rate."""
    from repro.arrivals.fixed import FixedRateArrivals
    from repro.sim.enforced import EnforcedWaitsSimulator

    baseline = EnforcedWaitsSimulator(
        plan.pipeline, plan.waits, FixedRateArrivals(plan.problem.tau0),
        plan.problem.deadline, N_ITEMS, seed=seed,
    )
    baseline.run()
    hwm = max(q.max_depth for q in baseline.queues)
    return max(VECTOR_WIDTH, int(math.ceil(1.25 * hwm)))


def prepare(seed: int) -> State:
    samples = []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds(IMPORTS)
        t0 = time.perf_counter()
        plan = _plan()
        capacity = _queue_bound(plan, APP_SEED)
        samples.append(imports + time.perf_counter() - t0)
    return State(seed * 1000, plan, capacity, samples)


def _trial(state: State, factor: float, policy: str, seed: int):
    from repro.arrivals.fixed import FixedRateArrivals
    from repro.resilience import ArrivalBurst, RuntimeFaultPlan
    from repro.sim.enforced import EnforcedWaitsSimulator

    tau0 = state.plan.problem.tau0
    span = N_ITEMS * tau0
    burst = ArrivalBurst(0.25 * span, 0.55 * span, factor)
    sim = EnforcedWaitsSimulator(
        state.plan.pipeline, state.plan.waits, FixedRateArrivals(tau0),
        state.plan.problem.deadline, N_ITEMS, seed=seed,
        runtime_faults=RuntimeFaultPlan(bursts=(burst,)),
        queue_capacity=state.capacity, shed_policy=policy,
    )
    metrics = sim.run()
    return sim, metrics


def _summary(sim, metrics) -> dict:
    res = metrics.extra.get("resilience", {})
    return {
        "shed": int(res.get("shed_total", 0)),
        "dropped_items": int(res.get("dropped_items", 0)),
        "missed": int(metrics.missed_items),
        "outputs": int(metrics.outputs),
        "degraded_s": float(res.get("degraded_time", 0.0)),
        "events": int(sim.engine.events_processed),
        "queues": [(q.total_pushed, q.total_popped, q.total_shed,
                    q.dropped_by_clear, len(q)) for q in sim.queues],
    }


def _campaign(state: State, seed: int, tracer, trial_s: list) -> dict:
    """Every burst factor under every shed policy; counts per cell."""
    cells = {}
    for factor in FACTORS:
        for policy in POLICIES:
            with tracer.span("sim:trial", request=f"seed-{seed}"):
                t0 = time.perf_counter()
                sim, metrics = _trial(state, factor, policy, seed)
                trial_s.append(time.perf_counter() - t0)
            cells[(factor, policy)] = _summary(sim, metrics)
    return cells


def measure(state: State, seconds: float, tracer) -> Measured:
    walls, trial_s, campaigns, errors = [], [], [], []
    overheads = []  # per campaign: wall time not spent in trials
    t_end = time.perf_counter() + seconds
    while another(t_end, walls, errors):
        seed = state.seed_base + len(walls) + len(errors)
        first = len(trial_s)
        t0 = time.perf_counter()
        with tracer.span("campaign:overload", request=f"seed-{seed}"):
            try:
                cells = _campaign(state, seed, tracer, trial_s)
            except Exception:  # a failed trial is counted, not fatal
                errors.append(traceback.format_exc())
                continue
        walls.append(time.perf_counter() - t0)
        overheads.append(campaign_overhead(
            walls[-1], 0.0, float(np.sum(trial_s[first:])), 1))
        campaigns.append(cells)
    if not walls:
        raise RuntimeError("every campaign failed:\n" + errors[-1])
    per_campaign = len(FACTORS) * len(POLICIES)
    attempted = len(trial_s) + len(errors)
    ms = np.asarray(trial_s) * 1e3
    return Measured(
        throughput=median([per_campaign * N_ITEMS / w for w in walls]),
        p50_ms=median(ms),
        tail=tail(ms),
        success=len(trial_s) / attempted,
        attempted=attempted,
        failed=len(errors),
        raw={"walls": walls, "trial_s": trial_s, "campaigns": campaigns,
             "overheads": overheads, "errors": errors},
        notes=[f"{len(walls)} campaigns of {per_campaign} trials x "
               f"{N_ITEMS} items, queue bound {state.capacity}"],
    )


def _conserves(cell: dict) -> tuple[bool, str]:
    """Every token pushed into a queue was popped or shed, and none remain.

    The head queue saw every item of the stream, and the ledger counts
    each item that lost a token to shedding as a deadline miss.
    """
    problems = []
    for i, (pushed, popped, shed, cleared, left) in enumerate(cell["queues"]):
        if pushed != popped + shed + cleared + left or left:
            problems.append(f"queue {i}: pushed {pushed} != popped {popped} "
                            f"+ shed {shed} + cleared {cleared}, {left} left")
    if cell["queues"][0][0] != N_ITEMS:
        problems.append(f"head queue saw {cell['queues'][0][0]} items")
    if cell["shed"] != sum(q[2] for q in cell["queues"]):
        problems.append("shed total disagrees with the queues")
    if not cell["dropped_items"] <= cell["missed"] <= N_ITEMS:
        problems.append(f"dropped {cell['dropped_items']} / missed "
                        f"{cell['missed']} out of range")
    return not problems, "; ".join(problems)


def check(state: State, m: Measured, tracer) -> list[Check]:
    errors = m.raw["errors"]
    checks = [Check("overload.trials_completed", not errors,
                    errors[0] if errors else "")]
    if errors:
        return checks
    broken = []
    for k, camp in enumerate(m.raw["campaigns"]):
        for (factor, policy), cell in camp.items():
            ok, detail = _conserves(cell)
            if not ok:
                broken.append(f"seed {state.seed_base + k} {factor:g}x "
                              f"{policy}: {detail}")
    checks.append(Check("overload.conservation", not broken,
                        "; ".join(broken[:3])))
    with tracer.span("campaign:repeat"):
        again = _campaign(state, state.seed_base, tracer, [])

    def counts(camp):
        return {k: (c["shed"], c["missed"], c["outputs"])
                for k, c in camp.items()}

    checks.append(Check(
        "overload.repeat_identical",
        counts(again) == counts(m.raw["campaigns"][0]),
        f"seed {state.seed_base}: {counts(again)} then "
        f"{counts(m.raw['campaigns'][0])}",
    ))
    return checks


def layers(state: State, m: Measured, tracer) -> dict:
    from repro.planning.warmstart import solve_plan
    from repro.planning.cache import PlanCache

    with tracer.span("core:solve"):
        t0 = time.perf_counter()
        solve_plan(state.plan.problem, state.plan.b, cache=PlanCache())
        solve_s = time.perf_counter() - t0
    first = m.raw["campaigns"][0].values()
    cells = [c for camp in m.raw["campaigns"] for c in camp.values()]
    events = np.asarray([c["events"] for c in cells])
    trial_s = m.raw["trial_s"]
    total_trial = float(np.sum(trial_s))
    trial_ms = np.asarray(trial_s) * 1e3
    return {
        "core.solve_ms": solve_s * 1e3,
        "sim.trial_ms.p50": median(trial_ms),
        "sim.trial_ms.tail": tail(trial_ms).value,
        "sim.items_per_s": len(trial_s) * N_ITEMS / total_trial,
        "sim.fastpath_share": float(np.mean(events == 0)),
        "des.events": int(sum(c["events"] for c in first)),
        "des.events_per_s": float(events.sum()) / total_trial,
        "campaign.wall_s": median(m.raw["walls"]),
        "campaign.overhead_s": median(m.raw["overheads"]),
        "resilience.shed_items": int(sum(c["shed"] for c in first)),
        "resilience.degraded_s": float(sum(c["degraded_s"] for c in first)),
    }
