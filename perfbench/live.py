"""Workload ``live``: the ``synthetic`` app run live at a 1 ms service floor.

An open-loop Poisson generator (one thread, in-process, as ``repro-run
run`` feeds) drives ``PipelineExecutor`` through a fixed ladder of
planned loads, each planned with ``plan_runtime(utilization=u)`` and fed
at the planned rate with the 15% head headroom ``repro-run run`` uses.
At the default 5 ms floor the plan, not the program, would set
capacity; at 1 ms, oversleep, interpreter-lock contention and routing
decide where deadlines start to break.

The ladder runs in rounds, one short segment per rung per round and a
fresh executor per segment, so a stall of the machine lands on one
segment of one rung rather than on a whole rung.  A segment is
*sustained* when it meets all three of:

- at most 1% of its items missed ``D`` or were shed (the p99 item
  latency is within the deadline);
- at the end of ingest, no more items are in flight than the scheduled
  rate times ``D`` (by Little's law, a larger backlog cannot drain
  within the deadline, so it is growing);
- the generator's p99 lateness against its due times stayed within 5%
  of ``D``.

The capacity is the scheduled rate where the share of sustained
segments crosses one half (``perfbench.stats.capacity``).  Item
latencies are timed from the executor's submit stamp; the lateness
criterion bounds how far that can sit from the due time.

The app, its plans and the ladder are fixed program configuration; the
seed drives the arrival times and payloads.
"""

from __future__ import annotations

import gc
import time
import traceback
from dataclasses import dataclass

import numpy as np

from perfbench.common import SETUP_REPEATS, Check, Measured, import_seconds
from perfbench.stats import Tail, beyond, capacity, median, tail, tail_q

APP_SEED = 0
VECTOR_WIDTH = 8
SERVICE_S = 0.001
RATE_SCALE = 1.15
LADDER = (0.7, 0.8, 0.9, 0.95, 0.99)
REFERENCE = 0.7
REFERENCE_PER_ROUND = 3
SEGMENT_S = 0.8
MISS_SHARE = 0.01
LATE_SHARE_OF_D = 0.05
DRAIN_TIMEOUT_S = 30.0
NODES = ("filter", "expand", "score")
IMPORTS = ["repro.runtime.kernels", "repro.runtime.executor"]


@dataclass
class State:
    seed: int
    plans: dict  # utilization -> RuntimePlan
    plan_s: list  # per set-up repetition: seconds spent in plan_runtime
    setup_samples: list


def _plan(u: float, cache):
    from repro.runtime.kernels import build_workload, plan_runtime

    workload = build_workload("synthetic", seed=APP_SEED)
    # The floor is the nominal service: kernel work is tens of
    # microseconds, so a measured service would equal it anyway, but
    # setting it keeps the plans identical from run to run.
    for kernel in workload.kernels:
        kernel.nominal_service = SERVICE_S
    return plan_runtime(workload, vector_width=VECTOR_WIDTH, utilization=u,
                        cache=cache, seed=APP_SEED)


def prepare(seed: int) -> State:
    from repro.planning.cache import PlanCache

    samples, plan_s = [], []
    for _ in range(SETUP_REPEATS):
        imports = import_seconds(IMPORTS)
        cache = PlanCache()
        t0 = time.perf_counter()
        plans = {u: _plan(u, cache) for u in LADDER}
        plan_s.append(time.perf_counter() - t0)
        samples.append(imports + plan_s[-1])
    return State(seed, plans, plan_s, samples)


def _arrivals(plan, rng):
    """Poisson due times over one segment at the rung's scheduled rate."""
    mean_gap = plan.problem.tau0 * RATE_SCALE
    gaps = rng.exponential(mean_gap, size=int(3 * SEGMENT_S / mean_gap) + 16)
    due = np.cumsum(gaps)
    due = due[due < SEGMENT_S]
    payload = plan.workload.sample_payload(len(due), rng)
    return due, payload


def _segment(plan, due, payload, tracer, label: str) -> dict:
    """Feed one segment on its due times into a fresh executor and drain it."""
    from repro.runtime.executor import PipelineExecutor

    n = len(due)
    late = np.empty(n)
    submit_s: list = []
    executor = PipelineExecutor.from_plan(plan).start()
    try:
        with tracer.span("runtime:segment", request=label):
            start = time.perf_counter()
            i = 0
            while i < n:
                now = time.perf_counter() - start
                if due[i] > now:
                    time.sleep(due[i] - now)
                    continue
                # Every item already due goes in one call; each keeps its
                # own lateness, so batching hides nothing.
                j = int(np.searchsorted(due, now, side="right"))
                t0 = time.perf_counter()
                executor.submit(payload[i:j])
                submit_s.append(time.perf_counter() - t0)
                late[i:j] = now - due[i:j]
                i = j
            backlog = executor.in_flight
            with tracer.span("runtime:drain", request=label):
                executor.finish_ingest()
                report = executor.join(timeout=DRAIN_TIMEOUT_S)
    except BaseException:
        if not executor.stopped:
            executor.request_stop()
            executor.join(timeout=5.0)
        raise
    tel = report.telemetry
    deadline = plan.problem.deadline
    rate = n / SEGMENT_S
    return {
        "rate": rate,
        "submitted": n,
        "ingested": tel.items_ingested,
        "in_flight": tel.in_flight,
        "missed": tel.missed_items,
        "latency": executor.ledger.latency,
        "elapsed": tel.elapsed,
        "backlog": backlog,
        "late_s": late,
        "submit_s": submit_s,
        "af_ratio": (tel.measured_active_fraction
                     / tel.planned_active_fraction),
        "replans": report.replans,
        "failures": report.node_failures,
        "nodes": tel.nodes,
        "criteria": (tel.missed_items <= MISS_SHARE * n,
                     backlog <= rate * deadline,
                     tail(late).value <= LATE_SHARE_OF_D * deadline),
    }


def _tail_q(segs) -> float:
    """The tail rule's percentile for the smallest segment of ``segs``."""
    return tail_q(min(s["latency"].n for s in segs)) or 1.0


def measure(state: State, seconds: float, tracer) -> Measured:
    rng = np.random.default_rng(state.seed)
    # Each round runs every rung once and the reference load three
    # times, so its latency is a median over three times as many segments.
    order = sorted(LADDER + (REFERENCE,) * (REFERENCE_PER_ROUND - 1))
    rounds = max(1, int(seconds // (len(order) * (SEGMENT_S + 0.15))))
    segments = {u: [] for u in LADDER}
    errors = []
    # The first segment after set-up runs slow (first calls, cold
    # caches); one uncounted segment at the reference load absorbs it.
    _segment(state.plans[REFERENCE], *_arrivals(state.plans[REFERENCE], rng),
             tracer, "warm-up")
    for r in range(rounds):
        for k, u in enumerate(order):
            plan = state.plans[u]
            due, payload = _arrivals(plan, rng)
            # Start every segment without the previous one's garbage.
            gc.collect()
            try:
                segments[u].append(
                    _segment(plan, due, payload, tracer, f"u{u}/r{r}/{k}"))
            except Exception:  # a failed segment is counted, not fatal
                errors.append((len(due), traceback.format_exc()))
    done = [u for u in LADDER if segments[u]]
    if REFERENCE not in done:
        raise RuntimeError("no reference segment completed:\n"
                           + errors[-1][1])
    rates = [median([s["rate"] for s in segments[u]]) for u in done]
    shares = [float(np.mean([all(s["criteria"]) for s in segments[u]]))
              for u in done]
    cap, censored = capacity(rates, shares)
    ref = segments[REFERENCE]
    n_out = min(s["latency"].n for s in ref)
    q = _tail_q(ref)
    submitted = sum(s["submitted"] for u in done for s in segments[u])
    lost = sum(f.items_lost for u in done for s in segments[u]
               for f in s["failures"])
    failed = lost + sum(n for n, _ in errors)
    attempted = submitted + sum(n for n, _ in errors)
    notes = [f"{rounds} rounds of {SEGMENT_S}s segments; capacity "
             f"{cap:.0f} items/s{' (ladder top: at least)' if censored else ''}"]
    for u, rate, share in zip(done, rates, shares):
        seg = segments[u]
        qu = _tail_q(seg)
        notes.append(
            f"u={u}: scheduled {rate:.0f}/s, sustained {share:.2f}, "
            f"missed {[s['missed'] for s in seg]}, p{100 * qu:g} ms "
            f"{[round(s['latency'].quantile(qu) * 1e3, 1) for s in seg]}, "
            f"af_ratio {median([s['af_ratio'] for s in seg]):.3f}, "
            f"replans {sum(s['replans'] for s in seg)}, segments failing "
            f"misses/backlog/lateness "
            f"{[sum(not s['criteria'][c] for s in seg) for c in range(3)]}")
    return Measured(
        throughput=cap,
        p50_ms=median([s["latency"].quantile(0.5) for s in ref]) * 1e3,
        tail=Tail(q, median([s["latency"].quantile(q) for s in ref]) * 1e3,
                  n_out, beyond(n_out, q)),
        success=1.0 - (sum(s["missed"] for s in ref)
                       / sum(s["submitted"] for s in ref)),
        attempted=attempted,
        failed=failed,
        raw={"segments": segments, "errors": errors},
        notes=notes,
    )


def check(state: State, m: Measured, tracer) -> list[Check]:
    errors = m.raw["errors"]
    checks = [Check("live.segments_completed", not errors,
                    errors[0][1] if errors else "")]
    for u, segs in m.raw["segments"].items():
        for r, s in enumerate(segs):
            problems = []
            if s["in_flight"] != 0:
                problems.append(f"{s['in_flight']} items still in flight")
            if s["ingested"] != s["submitted"]:
                problems.append(f"ingested {s['ingested']} of "
                                f"{s['submitted']} submitted")
            if s["failures"]:
                problems.append(f"node failures {s['failures']}")
            checks.append(Check(f"live.u{u}.r{r}.drained", not problems,
                                "; ".join(problems)))
    return checks


def _kernel_fire_us(tracer) -> dict:
    """Time ``kernel.fire`` on v-row batches outside the executor."""
    from repro.runtime.kernels import build_workload

    workload = build_workload("synthetic", seed=APP_SEED)
    rng = np.random.default_rng(APP_SEED)
    times = {name: [] for name in NODES}
    for _ in range(400):
        payload = workload.sample_payload(VECTOR_WIDTH, rng)
        for name, kernel in zip(NODES, workload.kernels):
            if len(payload) == 0:
                break
            batch = payload[:VECTOR_WIDTH]
            with tracer.span("kernels:fire"):
                t0 = time.perf_counter()
                _counts, payload = kernel.fire(batch)
                times[name].append(time.perf_counter() - t0)
    return {f"kernels.fire_us.{n}": median(t) * 1e6 for n, t in times.items()}


def layers(state: State, m: Measured, tracer) -> dict:
    ref = m.raw["segments"][REFERENCE]
    plan = state.plans[REFERENCE]
    out = {}
    for i, name in enumerate(NODES):
        def per_seg(f):
            return median([f(s["nodes"][i], s) for s in ref])

        b_v = plan.b[i] * VECTOR_WIDTH
        out.update({
            f"runtime.busy_share.{name}": per_seg(
                lambda n, s: n.busy_time / s["elapsed"]),
            f"runtime.wait_share.{name}": per_seg(
                lambda n, s: n.wait_time / s["elapsed"]),
            f"runtime.oversleep_us_per_firing.{name}": per_seg(
                lambda n, s: n.oversleep_time / max(n.firings, 1) * 1e6),
            f"runtime.occupancy.{name}": per_seg(
                lambda n, s: n.mean_occupancy),
            f"runtime.empty_firing_share.{name}": per_seg(
                lambda n, s: n.empty_firings / max(n.firings, 1)),
            f"runtime.hwm_over_bv.{name}": per_seg(
                lambda n, s: n.queue_hwm / b_v),
        })
    out.update(_kernel_fire_us(tracer))
    late_ms = np.concatenate([s["late_s"] for s in ref]) * 1e3
    out.update({
        "runtime.af_ratio": median([s["af_ratio"] for s in ref]),
        "runtime.replans": sum(s["replans"] for s in ref),
        "runtime.missed_items": sum(s["missed"] for s in ref),
        "runtime.submit_us": median(
            np.concatenate([s["submit_s"] for s in ref])) * 1e6,
        "runtime.gen_late_ms.p50": median(late_ms),
        "runtime.gen_late_ms.tail": tail(late_ms).value,
        "runtime.plan_s": median(state.plan_s),
    })
    return out
