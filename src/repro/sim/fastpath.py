"""Closed-form fast path for the enforced-waits simulator.

Under the paper's idealized timing the enforced-waits schedule is
*oblivious*: node ``i`` fires at the fixed times ``f_0 = offset_i``,
``f_{k+1} = f_k + t_i + w_i`` regardless of queue contents, and every
event-loop interaction reduces to order statistics over those fixed
grids.  This module exploits that to compute the entire simulation with
a handful of array operations per node — no event queue at all — while
remaining **bit-identical** to the event loop (and therefore to
``sim/reference.py``, which the event loop is already pinned against):

- firing/completion times come from :func:`repro.des.hotloop.firing_schedule`,
  which performs the event loop's float adds in the same order;
- per-firing consumption is the exact integer Lindley recursion
  (:func:`repro.des.hotloop.consumed_scan`) over input-availability
  counts obtained by ``searchsorted`` (arrivals/completions at time
  ``t`` outrank a firing at ``t``, matching event priorities);
- gain draws replay the event loop's generator-call pattern: one batched
  call for split-composable distributions (equal by composability), a
  per-firing loop otherwise — on fresh streams derived from the same
  ``(seed, name)``, so aborting midway never perturbs simulator state;
- shutdown time is the last consuming completion (when the pipeline's
  in-flight count hits zero), counted firings are those strictly before
  it, and ledgers/trackers are fed with batch methods documented (and
  tested) to reproduce the sequential float accumulation.

Bounded queues are the general case.  A node's pushes are the head
drains at its firing times, or the upstream's consuming completions;
the pass first probes the unbounded depth at every push.  A queue that
never exceeds its capacity keeps the closed form.  One that overflows
gets an exact scalar scan over its push/pop timeline (pushes at ``t``
land before a firing at ``t``), which counts the tokens each push sheds
and asks the queue's own :class:`~repro.resilience.shedding.ShedPolicy`
— through a scratch :class:`~repro.dataflow.queues.ItemQueue` built like
the simulator's — which tokens go.  Shedding keeps FIFO order, so the
node then consumes the surviving stream exactly like an unbounded one.
Arrival bursts are admitted too: the simulator remaps the arrival times
before this pass runs, and without spikes or stalls the schedule stays
oblivious.

:func:`run_enforced_fast` returns ``None`` whenever the run is not
eligible (GPS timing, telemetry, tracing, service spikes, stalls, the
watchdog, a ``python`` backend override), would overflow a queue whose
``on_overflow`` is ``"raise"``, or would exceed the event budget — the
caller then takes the ordinary event path, which raises or records
exactly what it always did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.dataflow.queues import ItemQueue
from repro.des.hotloop import consumed_scan, firing_schedule
from repro.des.rng import RngRegistry
from repro.simd.backend import get_backend

__all__ = ["run_dag_fast", "run_enforced_fast"]

#: Per-node firing-count ceiling: beyond this the schedule arrays would
#: dominate memory and the event path is no worse.
_K_MAX = 1 << 26


def _eligible(sim, times: np.ndarray) -> bool:
    if not get_backend().fastpath:
        return False
    if sim._timing_name != "idealized":
        return False
    if sim.trace is not None or sim.collector is not None:
        return False
    if sim._watchdog is not None:
        return False
    faults = sim._faults
    if faults is not None and (faults.service_spikes or faults.stalls):
        return False
    # Strictly positive service keeps every consuming firing strictly
    # before the shutdown completion; finite periods keep the grids
    # well-defined.
    for t, w in zip(sim._service_f, sim._waits_f):
        if not (t > 0) or not math.isfinite(t + w):
            return False
    if times.size and not np.isfinite(float(times[-1])):
        return False
    return True


@dataclass
class _NodePass:
    """Phase-A results for one node (arrays over its firing grid)."""

    fires: np.ndarray
    comps: np.ndarray
    per_fire: np.ndarray  # items consumed per firing
    n_consuming: int  # firings that consume something
    pushed: int  # tokens offered to the node's queue
    total: int  # tokens consumed (pushed minus shed)
    last_done: float  # completion of the last consuming firing
    shed: np.ndarray  # tokens shed from the node's queue
    hwm: int  # queue high-water mark in items
    n_counted: int = field(default=0)  # firings strictly before shutdown


def _node_schedule(off, t, w, avail_times, v, k_hint):
    """Firing grid extended until all ``avail_times`` items are consumed."""
    total = int(avail_times.size)
    k = int(min(max(16, k_hint), _K_MAX))
    while True:
        fires, comps = firing_schedule(off, t, w, k)
        avail = np.searchsorted(avail_times, fires, side="right").astype(
            np.int64
        )
        cum = consumed_scan(avail, v)
        if total == 0 or cum[-1] >= total:
            return fires, comps, avail, cum
        if k >= _K_MAX:
            return None
        k = min(2 * k, _K_MAX)


def _extend_schedule(nd: _NodePass, off, t, w, tau_end):
    """Grow the firing grid until it reaches ``tau_end`` (same prefix)."""
    k = nd.fires.size
    while nd.fires[k - 1] < tau_end:
        grow = int((tau_end - nd.fires[k - 1]) / (t + w)) + 4
        k = k + max(grow, k)
        if k > _K_MAX:
            return False
        nd.fires, nd.comps = firing_schedule(off, t, w, k)
    return True


def _head_pushes(fires, avail):
    """Head-queue pushes: the arrival drains at the head's firings, as
    (times, cumulative tokens pushed)."""
    drains = np.flatnonzero(np.diff(avail, prepend=np.int64(0)))
    return fires[drains], avail[drains]


def _push_depths(fires, cum, push_t, pushed_cum):
    """Firings that pop before each push, and the queue depth right
    after it.

    A push at time ``t`` lands before a firing at ``t`` (a head drain
    precedes the head pop), so only firings strictly before ``t`` have
    popped; firings past the end of ``cum`` pop nothing more.
    """
    push_idx = np.searchsorted(fires, push_t, side="left")
    popped_cum = np.concatenate(([np.int64(0)], cum))
    return push_idx, pushed_cum - popped_cum[np.minimum(push_idx, cum.size)]


def _shed_scan(q, v, push_t, push_idx, pushed_cum, stream, n_fires):
    """Replay an overflowing bounded queue exactly.

    ``push_idx[j]`` firings pop before push ``j`` lands, and the push
    carries ``stream[pushed_cum[j-1]:pushed_cum[j]]``.  Returns the
    tokens' availability count at each firing once shedding is applied,
    the surviving tokens in FIFO order, and the shed tokens.
    """
    cap = q.capacity
    shed_n = []  # tokens shed by each push
    overflows = []  # (push, queue length just before it)
    length = 0
    k_prev = 0
    start = 0
    for k, end in zip(push_idx.tolist(), pushed_cum.tolist()):
        # The k - k_prev firings since the previous push pop v each.
        length = max(0, length - (k - k_prev) * v)
        k_prev = k
        new = length + end - start
        start = end
        if new > cap:
            overflows.append((len(shed_n), length))
            shed_n.append(new - cap)
            length = cap
        else:
            shed_n.append(0)
            length = new
    kept_cum = pushed_cum - np.cumsum(shed_n)
    avail = np.concatenate(([np.int64(0)], kept_cum))[
        np.searchsorted(push_idx, np.arange(n_fires), side="right")
    ]

    # Which tokens go is the policy's call: offer it the queued tokens
    # (the newest survivors so far) plus the incoming batch.
    scratch = ItemQueue(
        q.name, capacity=cap, dtype=q.dtype, on_overflow=q.on_overflow
    )
    survivors = np.empty_like(stream)
    shed = []
    w = 0  # survivors written
    pos = 0  # stream tokens consumed into survivors
    for j, held in overflows:
        lo = int(pushed_cum[j - 1]) if j else 0
        hi = int(pushed_cum[j])
        survivors[w : w + lo - pos] = stream[pos:lo]
        w += lo - pos
        pos = hi
        w -= held
        scratch.push_many(survivors[w : w + held])
        shed.append(scratch.push_many(stream[lo:hi], now=float(push_t[j])))
        survivors[w : w + cap] = scratch.pop_up_to(cap)
        w += cap
    rest = stream.size - pos
    survivors[w : w + rest] = stream[pos:]
    return avail, survivors[: w + rest], np.concatenate(shed)


def run_enforced_fast(sim, times: np.ndarray):
    """Run ``sim`` without its event loop; see the module docstring.

    On success, mutates ``sim``'s trackers, ledger, queue counters,
    shed counts, active-time and last-activity state exactly as the
    event loop would have, and returns the per-queue high-water marks
    in items.  Returns ``None`` (with ``sim`` untouched) when ineligible.
    """
    if not _eligible(sim, times):
        return None
    v = sim._v
    n = sim._n_nodes
    # Fresh generators with the event path's exact stream identities:
    # stream(name) depends only on (seed, name), so the draws equal the
    # ones sim's own cached streams would produce, and sim's streams
    # stay pristine for the event path if we abort.
    registry = RngRegistry(sim.rng.seed)

    avail_times = np.ascontiguousarray(times, dtype=np.float64)
    in_ids = np.arange(sim.n_items, dtype=np.int64)
    empty_i64 = np.empty(0, dtype=np.int64)
    empty_f64 = np.empty(0, dtype=np.float64)

    nodes: list[_NodePass] = []
    for i in range(n):
        t = sim._service_f[i]
        w = sim._waits_f[i]
        off = float(sim.start_offsets[i])
        pushed = int(avail_times.size)
        t_last = float(avail_times[-1]) if pushed else off
        k_hint = (t_last - off) / (t + w) + pushed / v + 16
        sched = _node_schedule(off, t, w, avail_times, v, k_hint)
        if sched is None:
            return None
        fires, comps, avail, cum = sched
        if i == 0:
            push_t, pushed_cum = _head_pushes(fires, avail)
        else:
            push_t, pushed_cum = pushes
        push_idx, depths = _push_depths(fires, cum, push_t, pushed_cum)
        hwm = max(0, int(depths.max())) if depths.size else 0

        q = sim.queues[i]
        shed = empty_i64
        if q.capacity is not None and hwm > q.capacity:
            if q.on_overflow == "raise":
                return None  # the event path raises the same error
            avail, in_ids, shed = _shed_scan(
                q, v, push_t, push_idx, pushed_cum, in_ids, fires.size
            )
            cum = consumed_scan(avail, v)
            hwm = q.capacity
        total = int(in_ids.size)
        per_fire = np.diff(cum, prepend=np.int64(0))
        consuming = per_fire > 0
        if total:
            fire_of_item = np.searchsorted(
                cum, np.arange(total, dtype=np.int64), side="right"
            )
            gain = sim._gain_of[i]
            rng = registry.stream(f"node{i}.gain")
            if gain.sample_is_composable:
                draws = gain.sample(rng, total)
            else:
                # Replay the event loop's exact per-completion call
                # pattern for distributions whose draws don't compose.
                draws = np.empty(total, dtype=np.int64)
                pos = 0
                for ck in per_fire[consuming].tolist():
                    draws[pos : pos + ck] = gain.sample(rng, ck)
                    pos += ck
            out_ids = np.repeat(in_ids, draws)
            out_avail = np.repeat(comps[fire_of_item], draws)
            # Downstream pushes: (time, cumulative tokens) at each
            # completion that produces something.
            out_cum = np.concatenate(([np.int64(0)], np.cumsum(draws)))
            produced_cum = out_cum[cum[consuming]]
            producing = np.diff(produced_cum, prepend=np.int64(0)) > 0
            pushes = (comps[consuming][producing], produced_cum[producing])
        else:
            out_ids = empty_i64
            out_avail = empty_f64
            pushes = (empty_f64, empty_i64)
        nodes.append(
            _NodePass(
                fires=fires,
                comps=comps,
                per_fire=per_fire,
                n_consuming=int(np.count_nonzero(consuming)),
                pushed=pushed,
                total=total,
                last_done=float(comps[fire_of_item[-1]]) if total else 0.0,
                shed=shed,
                hwm=hwm,
            )
        )
        avail_times = out_avail
        in_ids = out_ids

    # Shutdown: in-flight hits zero at the last consuming completion
    # anywhere in the pipeline (items are in flight until they exit or
    # their gain draws to zero — both happen at completions; a shed
    # leaves ``capacity >= 1`` tokens queued, so never at a shed).
    tau_end = max(nd.last_done for nd in nodes if nd.total)

    # Count executed firings (strictly before tau_end: at equal times
    # the shutdown-setting completion outranks firing events) and check
    # the event budget the event loop would have enforced.
    n_events = 0
    for i, nd in enumerate(nodes):
        if not _extend_schedule(
            nd, float(sim.start_offsets[i]), sim._service_f[i],
            sim._waits_f[i], tau_end,
        ):
            return None
        nd.n_counted = int(np.searchsorted(nd.fires, tau_end, side="left"))
        # fire events (incl. one post-shutdown no-op per node) plus one
        # completion event per consuming firing (empty ones are elided).
        n_events += nd.n_counted + 1 + nd.n_consuming
    if n_events > sim.max_events:
        return None

    # -- commit (no aborts below: sim state is mutated from here) ----------
    last_activity = 0.0
    for i, nd in enumerate(nodes):
        n_c = nd.n_counted
        if n_c == 0:
            continue
        k_a = nd.per_fire.size
        per_fire_full = np.zeros(n_c, dtype=np.int64)
        m = min(n_c, k_a)
        per_fire_full[:m] = nd.per_fire[:m]
        comps_c = nd.comps[:n_c]
        charges = comps_c - nd.fires[:n_c]
        if not sim.charge_empty:
            charges = np.where(per_fire_full > 0, charges, 0.0)
        sim.trackers[i].record_firing_batch(per_fire_full, charges)
        sim._active_time[i] = float(
            np.cumsum(np.concatenate(([0.0], charges)))[-1]
        )
        last_activity = max(last_activity, float(comps_c[-1]))
    sim._last_activity = last_activity

    # After the loop the stream is the tail's outputs, in exit order.
    if in_ids.size:
        sim.ledger.record_exit_stream(times[in_ids], avail_times, ids=in_ids)
    # The ledger's drop accounting is order-insensitive (key sets and a
    # count), so one call stands in for the event loop's per-shed calls.
    sim.ledger.record_drops(ids=np.concatenate([nd.shed for nd in nodes]))

    # The event loop leaves its occupancy statistics on the queue
    # objects, and callers read them there directly (e.g. the capacity
    # calibration in experiments/overload.py probes ``q.max_depth``
    # after an unbounded run).  Mirror them: the run drains, so every
    # token offered to a queue was popped or shed and the queues end
    # empty; a shed pins the high-water mark to the capacity.
    hwm = np.zeros(n, dtype=np.float64)
    for i, (q, nd) in enumerate(zip(sim.queues, nodes)):
        q._pushed += nd.pushed
        q._popped += nd.total
        q._shed += nd.shed.size
        sim._shed_counts[i] += nd.shed.size
        if nd.hwm > q._max_depth:
            q._max_depth = nd.hwm
        hwm[i] = nd.hwm

    # Terminal bookkeeping the event loop would have left behind.
    sim._cursor = sim.n_items
    sim._arrivals_done = True
    sim._in_flight = 0
    sim._shutdown = True
    return hwm


# -- DAG fast path ----------------------------------------------------------
#
# The DAG simulator (repro.sim.dag) keeps the chain's oblivious firing
# grids; what changes is routing.  Each node's input stream is the merge
# of its in-edges' output streams, and the event loop's merge order at a
# fan-in queue is total: pushes are ordered by (time, predecessor topo
# index) because same-time completions run in topological-priority
# order.  A per-edge output stream is nondecreasing in time (completions
# advance monotonically), so concatenating the streams in predecessor
# topo order and stable-sorting by time reproduces the event loop's
# queue order exactly.  The same stable merge orders the global latency
# ledger across sinks.


@dataclass
class _DagPass:
    """Phase-A results for one DAG node (arrays over its firing grid)."""

    fires: np.ndarray
    comps: np.ndarray
    avail: np.ndarray
    cum: np.ndarray
    per_fire: np.ndarray
    consuming: np.ndarray
    total: int
    fire_of_item: np.ndarray
    n_counted: int = field(default=0)


def _dag_eligible(sim, times: np.ndarray) -> bool:
    if not get_backend().fastpath:
        return False
    for t, w in zip(sim._service_f, sim._waits_f):
        if not (t > 0) or not math.isfinite(t + w):
            return False
    if times.size and not np.isfinite(float(times[-1])):
        return False
    return True


def _stable_merge(parts):
    """Merge ``(times, ids)`` streams by (time, part order), stably."""
    if not parts:
        return (
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=np.int64),
        )
    if len(parts) == 1:
        return parts[0]
    at = np.concatenate([p[0] for p in parts])
    ai = np.concatenate([p[1] for p in parts])
    order = np.argsort(at, kind="stable")
    return at[order], ai[order]


def run_dag_fast(sim, times: np.ndarray):
    """Run a :class:`~repro.sim.dag.DagEnforcedWaitsSimulator` without
    its event loop; bit-identical to it when taken (see above).

    Returns the per-queue high-water marks in items, or ``None`` when
    ineligible (``sim`` untouched).
    """
    if not _dag_eligible(sim, times):
        return None
    v = sim._v
    n = sim._n_nodes
    registry = RngRegistry(sim.rng.seed)
    empty_i64 = np.empty(0, dtype=np.int64)
    empty_f64 = np.empty(0, dtype=np.float64)

    # Per-node input streams, appended in predecessor topo order, and
    # per-queue push events (times, counts) for the high-water marks.
    inbox: list[list] = [[] for _ in range(n)]
    inbox[0].append(
        (
            np.ascontiguousarray(times, dtype=np.float64),
            np.arange(sim.n_items, dtype=np.int64),
        )
    )
    queue_pushes: list[list] = [[] for _ in range(n)]
    exit_streams: list = []  # (sink topo index, out_ids, out_avail)

    nodes: list[_DagPass] = []
    for i in range(n):
        avail_times, in_ids = _stable_merge(inbox[i])
        inbox[i] = None  # free the merged parts
        t = sim._service_f[i]
        w = sim._waits_f[i]
        off = float(sim.start_offsets[i])
        total = int(avail_times.size)
        t_last = float(avail_times[-1]) if total else off
        k_hint = (t_last - off) / (t + w) + total / v + 16
        sched = _node_schedule(off, t, w, avail_times, v, k_hint)
        if sched is None:
            return None
        fires, comps, avail, cum = sched
        per_fire = np.diff(cum, prepend=np.int64(0))
        consuming = per_fire > 0
        if total:
            fire_of_item = np.searchsorted(
                cum, np.arange(total, dtype=np.int64), side="right"
            )
            item_done = comps[fire_of_item]
        else:
            fire_of_item = empty_i64
            item_done = empty_f64
        k_grid = cum.size
        push_times = comps[:k_grid][consuming]
        for dst, gain, stream in sim._channels[i]:
            if total:
                rng = registry.stream(stream)
                if gain.sample_is_composable:
                    draws = gain.sample(rng, total)
                else:
                    # Replay the event loop's per-completion call
                    # pattern on this channel's own stream.
                    draws = np.empty(total, dtype=np.int64)
                    pos = 0
                    for ck in per_fire[consuming].tolist():
                        draws[pos : pos + ck] = gain.sample(rng, ck)
                        pos += ck
                out_ids = np.repeat(in_ids, draws)
                out_avail = np.repeat(item_done, draws)
            else:
                draws = empty_i64
                out_ids = empty_i64
                out_avail = empty_f64
            if dst is not None:
                inbox[dst].append((out_avail, out_ids))
                if total:
                    produced = np.bincount(
                        fire_of_item, weights=draws, minlength=k_grid
                    ).astype(np.int64)
                    queue_pushes[dst].append(
                        (push_times, produced[consuming])
                    )
            else:
                exit_streams.append((i, out_ids, out_avail))
        nodes.append(
            _DagPass(
                fires=fires,
                comps=comps,
                avail=avail,
                cum=cum,
                per_fire=per_fire,
                consuming=consuming,
                total=total,
                fire_of_item=fire_of_item,
            )
        )

    consuming_nodes = [nd for nd in nodes if nd.total]
    if not consuming_nodes:
        return None  # nothing ever flows; let the event loop handle it
    tau_end = max(
        float(nd.comps[nd.fire_of_item[-1]]) for nd in consuming_nodes
    )

    n_events = 0
    for i, nd in enumerate(nodes):
        if not _extend_schedule(
            nd, float(sim.start_offsets[i]), sim._service_f[i],
            sim._waits_f[i], tau_end,
        ):
            return None
        nd.n_counted = int(np.searchsorted(nd.fires, tau_end, side="left"))
        n_events += nd.n_counted + 1 + int(np.count_nonzero(nd.consuming))
    if n_events > sim.max_events:
        return None

    # -- commit (no aborts below: sim state is mutated from here) ----------
    last_activity = 0.0
    for i, nd in enumerate(nodes):
        n_c = nd.n_counted
        if n_c == 0:
            continue
        k_a = nd.cum.size
        per_fire_full = np.zeros(n_c, dtype=np.int64)
        m = min(n_c, k_a)
        per_fire_full[:m] = nd.per_fire[:m]
        comps_c = nd.comps[:n_c]
        charges = comps_c - nd.fires[:n_c]
        if not sim.charge_empty:
            charges = np.where(per_fire_full > 0, charges, 0.0)
        sim.trackers[i].record_firing_batch(per_fire_full, charges)
        sim._active_time[i] = float(
            np.cumsum(np.concatenate(([0.0], charges)))[-1]
        )
        last_activity = max(last_activity, float(comps_c[-1]))
    sim._last_activity = last_activity

    # Ledgers: per-sink streams are already in exit order; the global
    # ledger sees the stable merge across sinks by (time, sink topo
    # index), matching completion priorities.
    merged_exits = []
    for i, out_ids, out_avail in exit_streams:
        if out_ids.size:
            sim.sink_ledgers[sim.order[i]].record_exit_stream(
                times[out_ids], out_avail, ids=out_ids
            )
            merged_exits.append((out_avail, out_ids))
    exits_t, exits_ids = _stable_merge(merged_exits)
    if exits_ids.size:
        sim.ledger.record_exit_stream(
            times[exits_ids], exits_t, ids=exits_ids
        )

    # Queue high-water marks (items), probed at the event loop's push
    # points: head pushes at firing-time drains, interior pushes at
    # upstream consuming completions (merged across in-edges).
    hwm = np.zeros(n, dtype=np.float64)
    for i, nd in enumerate(nodes):
        if i == 0:
            push_t, pushed_cum = _head_pushes(nd.fires, nd.avail)
        else:
            parts = queue_pushes[i]
            if not parts:
                continue
            if len(parts) == 1:
                push_t, push_c = parts[0]
            else:
                pt = np.concatenate([p[0] for p in parts])
                pc = np.concatenate([p[1] for p in parts])
                order = np.argsort(pt, kind="stable")
                push_t, push_c = pt[order], pc[order]
            pushed_cum = np.cumsum(push_c)
        if push_t.size:
            _, depths = _push_depths(nd.fires, nd.cum, push_t, pushed_cum)
            hwm[i] = max(0, int(depths.max()))

    for i, (q, nd) in enumerate(zip(sim.queues, nodes)):
        q._pushed += nd.total
        q._popped += nd.total
        depth = int(hwm[i])
        if depth > q._max_depth:
            q._max_depth = depth

    sim._cursor = sim.n_items
    sim._arrivals_done = True
    sim._in_flight = 0
    sim._shutdown = True
    return hwm
