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
- gain draws replay the event loop's generator-call pattern, one
  channel (out-edge) at a time: one batched call for split-composable
  distributions (equal by composability), a per-firing loop otherwise —
  on fresh streams derived from the same ``(seed, name)``, so aborting
  midway never perturbs simulator state;
- shutdown time is the last consuming completion (when the graph's
  in-flight count hits zero), counted firings are those strictly before
  it, and ledgers/trackers are fed with batch methods documented (and
  tested) to reproduce the sequential float accumulation.

Nodes are processed in topological order, and a node's input is the
merge of its in-edges' output streams.  The event loop's merge order at
a fan-in queue is total: same-time completions run in topological
order of the completing node, so pushes are ordered by (time,
predecessor index).  A per-edge output stream is nondecreasing in time,
so concatenating the streams in predecessor order and stable-sorting by
time reproduces the queue order exactly; with one in-edge (a chain) the
merge is the identity.  The same stable merge orders the global latency
ledger across sinks.

Bounded queues are the general case.  A node's pushes are the source
drains at its firing times, or the merged consuming completions of its
predecessors; the pass first probes the unbounded depth at every push.
A queue that never exceeds its capacity keeps the closed form.  One
that overflows gets an exact scalar scan over its push/pop timeline
(pushes at ``t`` land before a firing at ``t``), which counts the tokens
each push sheds and asks the queue's own
:class:`~repro.resilience.shedding.ShedPolicy` — through a scratch
:class:`~repro.dataflow.queues.ItemQueue` built like the simulator's —
which tokens go.  Shedding keeps FIFO order, so the node then consumes
the surviving stream exactly like an unbounded one.  Arrival bursts are
admitted too: the simulator remaps the arrival times before this pass
runs, and without spikes or stalls the schedule stays oblivious.

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

__all__ = ["run_enforced_fast"]

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


def _stable_merge(parts):
    """Concatenate aligned array tuples in part order and stable-sort
    every column by the first (time): ties keep part order."""
    if len(parts) == 1:
        return parts[0]
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.argsort(cols[0], kind="stable")
    return tuple(col[order] for col in cols)


def _draw_gains(gain, rng, total, per_consuming):
    """One channel's per-item gain draws in the event loop's call pattern."""
    if gain.sample_is_composable:
        return gain.sample(rng, total)
    # Replay the event loop's exact per-completion call pattern for
    # distributions whose draws don't compose.
    draws = np.empty(total, dtype=np.int64)
    pos = 0
    for ck in per_consuming.tolist():
        draws[pos : pos + ck] = gain.sample(rng, ck)
        pos += ck
    return draws


def run_enforced_fast(sim, times: np.ndarray):
    """Run ``sim`` without its event loop; see the module docstring.

    On success, mutates ``sim``'s trackers, ledgers, queue counters,
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
    empty_i64 = np.empty(0, dtype=np.int64)
    empty_f64 = np.empty(0, dtype=np.float64)

    # Per-node in-edge parts, appended in predecessor order: token
    # streams (availability times, ids) and push timelines (times,
    # cumulative tokens).  The source's input is the arrival stream.
    inputs: list = [[] for _ in range(n)]
    pushes: list = [[] for _ in range(n)]
    inputs[0].append(
        (
            np.ascontiguousarray(times, dtype=np.float64),
            np.arange(sim.n_items, dtype=np.int64),
        )
    )
    exits = []  # (sink index, exit times, ids), sinks in topological order

    nodes: list[_NodePass] = []
    for i in range(n):
        avail_times, in_ids = _stable_merge(inputs[i])
        inputs[i] = None  # free the parts
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
        elif len(pushes[i]) == 1:
            push_t, pushed_cum = pushes[i][0]
        else:
            push_t, counts = _stable_merge(
                [(pt, np.diff(pc, prepend=np.int64(0))) for pt, pc in pushes[i]]
            )
            pushed_cum = np.cumsum(counts)
        pushes[i] = None
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
            item_done = comps[fire_of_item]
            done = comps[consuming]
        for dst, gain, stream in sim._channels[i]:
            if total:
                draws = _draw_gains(
                    gain, registry.stream(stream), total, per_fire[consuming]
                )
                out = (np.repeat(item_done, draws), np.repeat(in_ids, draws))
                # Pushes: (time, cumulative tokens) at each completion
                # that produces something on this channel.
                out_cum = np.concatenate(([np.int64(0)], np.cumsum(draws)))
                produced_cum = out_cum[cum[consuming]]
                producing = np.diff(produced_cum, prepend=np.int64(0)) > 0
                push = (done[producing], produced_cum[producing])
            else:
                out = (empty_f64, empty_i64)
                push = (empty_f64, empty_i64)
            if dst is None:
                exits.append((i, *out))
            else:
                inputs[dst].append(out)
                pushes[dst].append(push)
        nodes.append(
            _NodePass(
                fires=fires,
                comps=comps,
                per_fire=per_fire,
                n_consuming=int(np.count_nonzero(consuming)),
                pushed=pushed,
                total=total,
                last_done=float(item_done[-1]) if total else 0.0,
                shed=shed,
                hwm=hwm,
            )
        )

    # Shutdown: in-flight hits zero at the last consuming completion
    # anywhere in the graph (items are in flight until they exit or
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

    # Sink ledgers take their own exit streams; the global ledger takes
    # their stable merge by (time, sink index), the completion order.
    for i, exit_t, exit_ids in exits:
        sink = sim.sink_ledgers[sim.order[i]]
        if sink is not sim.ledger and exit_ids.size:
            sink.record_exit_stream(times[exit_ids], exit_t, ids=exit_ids)
    exit_t, exit_ids = _stable_merge([(t, ids) for _, t, ids in exits])
    if exit_ids.size:
        sim.ledger.record_exit_stream(times[exit_ids], exit_t, ids=exit_ids)
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
