"""Discrete-event simulator of the enforced-waits strategy.

Each node runs a fire/complete/wait cycle: at a firing start it consumes up
to ``v`` items from its input queue; the firing occupies the node for its
service time (under the chosen timing model); on completion each consumed
item's sampled gain emits outputs downstream (or out of the pipeline at a
sink); the node then waits exactly ``w_i`` before its next firing,
regardless of queue contents — the paper's *enforced wait* (Section 4).

The application is either a linear :class:`~repro.dataflow.spec.PipelineSpec`
or a validated single-source :class:`~repro.dataflow.graph.DataflowGraph`;
a chain is a graph with one path, and both run through the same code.
Nodes are indexed in topological order (a chain's node order).  Each
node routes a completion through its channel table, one
``(destination or sink exit, gain, RNG stream)`` entry per out-edge: a
firing's consumed items are replicated along every out-edge, each edge
sampling its own gain, and a fan-in node's queue merges the pushes of
all its predecessors.  A chain's table is built straight from the
``PipelineSpec``.

Under the default :class:`~repro.simd.sharing.IdealizedSharing` timing the
inter-firing period is exactly ``t_i + w_i``, matching the optimizer's
model; the GPS timing models (ablation A1) let firing durations depend on
concurrent activity.

Event ordering at equal virtual times is: arrivals first, then firing
completions in topological order of the completing node, then firing
starts — so an item arriving at ``t`` is visible to a node firing at
``t``, outputs completing at ``t`` reach a downstream node that also
fires at ``t``, and a fan-in queue receives same-time pushes in
predecessor order (a total order the fast path reproduces with a stable
merge).  On a chain, same-time completions of different nodes touch
disjoint queues, so the rank changes no queue state there; only the
watchdog, whose degraded flag every node reads, sees a sink exit after
the same-instant upstream completions.

**RNG stream identity.**  A node with out-degree <= 1 samples on the
stream ``node{i}.gain`` (``i`` its topological index), sinks included;
only fan-out nodes use per-edge streams ``edge{i}->{j}.gain``.  A
chain-shaped graph therefore replays the ``PipelineSpec`` run's exact
draws and simulates bit-identically to it.

**Per-sink ledgers.**  ``metrics.extra["sinks"]`` maps every sink to its
own :class:`~repro.sim.metrics.LatencyLedger`, alongside the global
ledger that scores an item as missed when any output is late at any
sink.  With a single sink the entry *is* the global ledger.

Chunked arrivals
----------------
Arrivals are *not* scheduled as one heap event + closure per item.  The
sorted arrival-time array is kept aside with a cursor, and the source
node's firing handler — the only observer of its queue — drains every
not-yet-enqueued arrival with timestamp ``<= now`` in one ``push_many``
before popping its input vector.  Because arrivals at ``t`` outrank a
firing at ``t`` (priority ordering above), this is observationally
identical to per-item arrival events: every firing sees exactly the same
queue state, so the simulation is bit-identical to the per-item
reference implementation
(:class:`~repro.sim.reference.ReferenceEnforcedSimulator`) — only the
engine's ``events_processed`` count drops (by one event per item).
Telemetry and trace hooks replay the per-arrival observations with the
original arrival timestamps, so their statistics are unchanged; trace
*record order* may interleave differently across nodes (arrival records
are emitted at drain time), but every record carries its true timestamp.

Items are identified by integer ids (their index in the arrival stream),
which the queues carry end-to-end; origin timestamps are looked up by id
at the sinks.  This keeps deadline accounting correct when distinct
items share an arrival timestamp (ties are allowed by the arrival
contract).

Degraded-mode runtime (opt-in)
------------------------------
Four keyword arguments enable the resilience layer
(:mod:`repro.resilience`) on any graph; all default to disabled, and the
disabled path is bit-identical to the plain simulator (pinned by
``tests/test_sim_equivalence.py``):

- ``runtime_faults`` — a :class:`~repro.resilience.faults.RuntimeFaultPlan`
  injecting service-time spikes, node stalls, and arrival bursts beyond
  the planned rate, all deterministic per seed.
- ``queue_capacity`` + ``shed_policy`` — bound every inter-node queue
  and shed on overflow instead of raising; shed items are accounted as
  deadline misses in the global
  :class:`~repro.sim.metrics.LatencyLedger` and as ``queue_shed`` in
  telemetry.  The deadline-aware policy estimates the service still
  ahead of a queued item as the minimum total service from its node to
  any sink.
- ``watchdog`` — a :class:`~repro.resilience.watchdog.DeadlineWatchdog`
  that zeroes the enforced waits while slack erodes (observed at every
  sink exit) and restores them (with hysteresis) once the backlog
  drains; degraded intervals land in ``metrics.extra["resilience"]``
  and telemetry.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from functools import partial

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.gains import GainDistribution
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.queues import ItemQueue
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.des.engine import Engine
from repro.des.events import EventHandle
from repro.des.rng import RngRegistry
from repro.des.trace import TraceRecorder
from repro.errors import SimulationError, SpecError
from repro.obs.telemetry import TelemetryCollector
from repro.resilience.faults import RuntimeFaultPlan
from repro.resilience.shedding import make_shed_policy
from repro.resilience.watchdog import DeadlineWatchdog
from repro.sim.fastpath import run_enforced_fast
from repro.sim.metrics import LatencyLedger, SimMetrics
from repro.simd.occupancy import OccupancyTracker
from repro.simd.sharing import IdealizedSharing, TimingModel, WorkConservingSharing

__all__ = ["EnforcedWaitsSimulator"]

#: A node's output channel: destination topological index (``None`` for
#: a sink exit), gain distribution, RNG stream name.
_Channel = tuple[int | None, GainDistribution, str]


def _topology(
    pipeline: PipelineSpec | DataflowGraph,
) -> tuple[tuple[NodeSpec, ...], list[list[_Channel]]]:
    """Node specs in topological order and each node's channel table.

    A chain's table comes straight from the ``PipelineSpec``; a graph is
    validated and ordered first.  Channels are in destination
    topological order; out-degree <= 1 keeps the ``node{i}.gain`` stream
    (see the module docstring).
    """
    if isinstance(pipeline, PipelineSpec):
        n = pipeline.n_nodes
        return pipeline.nodes, [
            [(i + 1 if i + 1 < n else None, node.gain, f"node{i}.gain")]
            for i, node in enumerate(pipeline.nodes)
        ]
    if not isinstance(pipeline, DataflowGraph):
        raise SpecError(
            "pipeline must be a PipelineSpec or a DataflowGraph, got "
            f"{type(pipeline).__name__}"
        )
    pipeline.validate()
    order = pipeline.topological_order()
    pos = {name: i for i, name in enumerate(order)}
    channels: list[list[_Channel]] = []
    for i, name in enumerate(order):
        succs = pipeline.successors(name)
        if not succs:
            channels.append([(None, pipeline.spec(name).gain, f"node{i}.gain")])
        elif len(succs) == 1:
            channels.append([
                (pos[succs[0]], pipeline.edge_gain(name, succs[0]),
                 f"node{i}.gain")
            ])
        else:
            channels.append([
                (pos[s], pipeline.edge_gain(name, s), f"edge{i}->{pos[s]}.gain")
                for s in succs
            ])
    return tuple(pipeline.spec(name) for name in order), channels


class EnforcedWaitsSimulator:
    """Simulate a pipeline or dataflow DAG under per-node enforced waits.

    Parameters
    ----------
    pipeline:
        The application: a :class:`~repro.dataflow.spec.PipelineSpec`
        chain or a :class:`~repro.dataflow.graph.DataflowGraph`
        (validated on construction: single source, acyclic, connected).
    waits:
        Enforced waits ``w_i >= 0``, finite: an array in topological
        order (a chain's node order), or a ``{name: wait}`` mapping
        naming every node (typically from
        :func:`repro.core.enforced_waits.solve_enforced_waits` or
        :meth:`repro.core.dag.DagEnforcedWaitsSolution.waits_by_name`).
    arrivals:
        The input stream process.
    deadline:
        Per-item latency bound ``D > 0``; ``inf`` means no deadline.
    n_items:
        Stream length.
    seed:
        Root seed for all random streams.
    charge_empty_firings:
        The paper charges firings with an empty input vector as active
        time ("for ease of analysis"); set False to treat them as
        vacations (ablation A2).
    timing:
        ``"idealized"`` (default), ``"gps"`` (work-conserving sharing), or
        ``"gps-capped"`` (GPS with per-node share cap 1/N, which must
        reproduce idealized timing exactly — used as a consistency check).
    start_offsets:
        Optional finite per-node times of the *first* firing (default
        all zero), topological order.  Phases do not affect the active
        fraction but do affect latency; see
        :func:`repro.core.offsets.aligned_offsets`.
    trace:
        Optional :class:`~repro.des.trace.TraceRecorder`.
    telemetry:
        When True, collect per-node and engine telemetry
        (:class:`~repro.obs.telemetry.RunTelemetry`) and attach it as
        ``metrics.extra["telemetry"]``.  Collection is passive: it never
        touches the RNG or the event queue, so results are bit-identical
        with or without it.
    runtime_faults:
        Optional :class:`~repro.resilience.faults.RuntimeFaultPlan` of
        in-simulation faults (see the module docstring).
    queue_capacity:
        Optional bound on every inter-node queue (in items).  Without a
        ``shed_policy`` an overflow raises
        :class:`~repro.errors.SimulationError` (fail-fast instability
        detection); with one, overflow sheds.
    shed_policy:
        ``None`` (default), ``"drop-newest"``, ``"drop-oldest"``, or
        ``"deadline-aware"``; requires ``queue_capacity``.
    watchdog:
        Optional :class:`~repro.resilience.watchdog.DeadlineWatchdog`
        enabling graceful degradation of the enforced waits.
    engine:
        Optional shared :class:`~repro.des.engine.Engine`.  When given,
        this simulator co-schedules on the caller's virtual timeline
        (multi-tenant mode, :mod:`repro.tenancy.sim`): the caller arms
        it with :meth:`prepare`, runs the engine itself, and collects
        metrics with :meth:`finalize`.
    """

    def __init__(
        self,
        pipeline: PipelineSpec | DataflowGraph,
        waits: np.ndarray | Mapping[str, float],
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        charge_empty_firings: bool = True,
        timing: str = "idealized",
        start_offsets: np.ndarray | None = None,
        keep_latency_samples: bool = False,
        trace: TraceRecorder | None = None,
        telemetry: bool = False,
        max_events: int = 20_000_000,
        runtime_faults: RuntimeFaultPlan | None = None,
        queue_capacity: int | None = None,
        shed_policy: str | None = None,
        watchdog: DeadlineWatchdog | None = None,
        engine: Engine | None = None,
    ) -> None:
        specs, channels = _topology(pipeline)
        n = len(specs)
        self.order: tuple[str, ...] = tuple(node.name for node in specs)
        if isinstance(waits, Mapping):
            unknown = [name for name in waits if name not in self.order]
            if unknown:
                raise SpecError(f"waits mapping names unknown nodes {unknown}")
            missing = [name for name in self.order if name not in waits]
            if missing:
                raise SpecError(f"waits mapping is missing nodes {missing}")
            waits = [waits[name] for name in self.order]
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (n,):
            raise SpecError(f"waits must have length {n}, got {waits.shape}")
        if not (np.isfinite(waits) & (waits >= 0)).all():
            raise SpecError(f"waits must be finite and >= 0, got {waits}")
        if n_items < 1:
            raise SpecError(f"n_items must be >= 1, got {n_items}")
        if not deadline > 0:
            raise SpecError(f"deadline must be > 0, got {deadline}")
        if start_offsets is None:
            start_offsets = np.zeros(n)
        else:
            start_offsets = np.asarray(start_offsets, dtype=float)
            if start_offsets.shape != (n,):
                raise SpecError(f"start_offsets must have length {n}")
            if not (np.isfinite(start_offsets) & (start_offsets >= 0)).all():
                raise SpecError(
                    f"start_offsets must be finite and >= 0, got {start_offsets}"
                )
        self.start_offsets = start_offsets

        self.pipeline = pipeline
        self.waits = waits
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.charge_empty = bool(charge_empty_firings)
        self.trace = trace
        self.max_events = max_events

        if shed_policy is not None and queue_capacity is None:
            raise SpecError("shed_policy requires queue_capacity")
        self._faults = (
            None
            if runtime_faults is None or runtime_faults.empty
            else runtime_faults
        )
        self._watchdog = watchdog

        self.rng = RngRegistry(seed)
        # A caller-supplied engine co-schedules this simulator with others
        # on one virtual timeline (see repro.tenancy.sim); the owner of a
        # shared engine drives it via prepare()/finalize() instead of run().
        self._owns_engine = engine is None
        self.engine = Engine() if engine is None else engine
        v = pipeline.vector_width
        # Minimum service from node i (inclusive) to any sink: the
        # deadline-aware shed policy's traversal estimate.
        downstream = [0.0] * n
        for i in reversed(range(n)):
            ahead = [downstream[d] for d, _, _ in channels[i] if d is not None]
            downstream[i] = specs[i].service_time + min(ahead, default=0.0)
        self._downstream_service = np.asarray(downstream)
        self.queues = [
            ItemQueue(
                f"q{i}",
                dtype=np.int64,
                capacity=queue_capacity,
                on_overflow=(
                    "raise"
                    if shed_policy is None
                    else make_shed_policy(
                        shed_policy, slack_of=self._make_slack_fn(i)
                    )
                ),
            )
            for i in range(n)
        ]
        self._shed_counts = np.zeros(n, dtype=np.int64)
        self.trackers = [OccupancyTracker(name, v) for name in self.order]
        self.ledger = LatencyLedger(deadline, keep_samples=keep_latency_samples)
        self.sink_names: tuple[str, ...] = tuple(
            self.order[i] for i, chans in enumerate(channels)
            if chans[0][0] is None
        )
        # One sink scores exactly what the global ledger scores, so it
        # shares that object instead of recording every exit twice.
        self.sink_ledgers: dict[str, LatencyLedger] = (
            {self.sink_names[0]: self.ledger}
            if len(self.sink_names) == 1
            else {
                name: LatencyLedger(deadline, keep_samples=keep_latency_samples)
                for name in self.sink_names
            }
        )
        self.collector = (
            TelemetryCollector(list(self.order), v) if telemetry else None
        )

        if timing == "idealized":
            self._timing: TimingModel = IdealizedSharing()
        elif timing == "gps":
            self._timing = WorkConservingSharing(n, capped=False)
        elif timing == "gps-capped":
            self._timing = WorkConservingSharing(n, capped=True)
        else:
            raise SpecError(
                f"timing must be 'idealized', 'gps', or 'gps-capped', "
                f"got {timing!r}"
            )
        self._timing_name = timing
        self._gps_event: EventHandle | None = None
        self._inflight_firings: dict = {}

        self._times: np.ndarray | None = None  # arrival times, set by run()
        self._cursor = 0  # first not-yet-enqueued arrival index
        self._arrivals_done = False
        self._in_flight = 0
        self._shutdown = False
        self._last_activity = 0.0
        self._active_time = np.zeros(n)
        self._ran = False

        # Hot-path per-node state, hoisted out of _fire/_complete: plain
        # Python floats (numpy scalar indexing per event is measurably
        # slower), the channel tables, pre-seeded RNG streams (stream
        # identity depends only on (seed, name), so creation order is
        # irrelevant).  The reusable firing closures reference the
        # simulator, so _schedule_initial_firings builds them: a run that
        # never enters the event loop holds no reference cycle and is
        # freed as soon as it is dropped.
        self._service_f = [float(node.service_time) for node in specs]
        self._waits_f = [float(w) for w in waits]
        self._channels = channels
        self._rng_of = {
            stream: self.rng.stream(stream)
            for chans in channels
            for _, _, stream in chans
        }
        self._v = int(v)
        self._n_nodes = n
        # Completions rank by their node's topological index (the
        # deterministic fan-in order); firing starts rank after all.
        self._prio_fire = n

    def _make_slack_fn(self, i: int):
        """Remaining-slack estimator for node ``i``'s queue (deadline-aware).

        Slack of an item is the time left until its deadline minus the
        minimum service still ahead of it; ``self._times`` is bound
        lazily because arrivals are generated in :meth:`run`.  The
        simulator is held weakly: its queues own the policy, and a
        strong reference would make every simulator cyclic garbage.
        """
        sim_ref = weakref.ref(self)

        def slack_of(ids: np.ndarray, now: float) -> np.ndarray:
            sim = sim_ref()
            if sim is None:
                raise SimulationError(
                    "deadline-aware queue outlived its simulator"
                )
            return (
                sim._times[ids]
                + sim.deadline
                - now
                - sim._downstream_service[i]
            )

        return slack_of

    def _on_shed(self, i: int, dropped: np.ndarray, now: float) -> None:
        """Account tokens shed from node ``i``'s queue as deadline misses."""
        k = int(dropped.size)
        self._in_flight -= k
        self._shed_counts[i] += k
        self.ledger.record_drops(ids=dropped)
        if self.collector is not None:
            self.collector.on_shed(i, now, k, len(self.queues[i]))
        if self.trace is not None:
            self.trace.record(
                now, "shed", self.order[i], dropped=k
            )
        self._maybe_shutdown()

    def _wait_after(self, i: int) -> float:
        """Enforced wait for node ``i``'s next firing (watchdog-scaled)."""
        if self._watchdog is not None and self._watchdog.degraded:
            return 0.0
        return self._waits_f[i]

    # -- event handlers ------------------------------------------------------

    def _drain_arrivals(self, now: float) -> None:
        """Enqueue every arrival with timestamp <= ``now`` (chunked).

        Called from the source node's firing handler before it pops, i.e.
        at the first point the arrivals become observable.  Telemetry and
        trace observations are replayed per item with the original
        arrival timestamps, so observers see the same statistics as under
        per-item arrival events.
        """
        c = self._cursor
        if c >= self.n_items:
            return
        times = self._times
        j = int(np.searchsorted(times, now, side="right"))
        if j <= c:
            return
        q0 = self.queues[0]
        dropped = q0.push_many(np.arange(c, j, dtype=np.int64), now=now)
        self._in_flight += j - c
        self._cursor = j
        if self.collector is not None:
            if dropped is None:
                on_enqueue = self.collector.on_enqueue
                qlen = len(q0) - (j - c)
                for k in range(c, j):
                    qlen += 1
                    on_enqueue(0, float(times[k]), 1, qlen)
            else:
                # Shedding reshuffled the queue; the per-item replay's
                # incremental lengths no longer apply.  Record the batch
                # wholesale at drain time instead.
                self.collector.on_enqueue(0, now, j - c, len(q0))
        if self.trace is not None:
            record = self.trace.record
            for k in range(c, j):
                origin = float(times[k])
                record(origin, "arrival", "stream", origin=origin)
        if j >= self.n_items:
            self._arrivals_done = True
        if dropped is not None and dropped.size:
            self._on_shed(0, dropped, now)

    def _maybe_shutdown(self) -> None:
        if (
            self._arrivals_done
            and self._in_flight == 0
            and not self._inflight_firings
            and not self._shutdown
        ):
            self._shutdown = True
            if self._gps_event is not None:
                self._gps_event.cancel()
                self._gps_event = None

    def _fire(self, i: int) -> None:
        if self._shutdown:
            return
        now = self.engine.now
        if self._faults is not None:
            release = self._faults.stall_release(i, now)
            if release > now:
                # Stalled: defer this firing to the stall's end.
                self.engine.schedule(
                    release, self._fire_fns[i], priority=self._prio_fire
                )
                return
        if i == 0:
            self._drain_arrivals(now)
        ids = self.queues[i].pop_up_to(self._v)
        consumed = ids.size
        t_i = self._service_f[i]
        if self._faults is not None:
            t_i *= self._faults.service_factor(i, now)
        if self.collector is not None:
            self.collector.on_fire(i, now, int(consumed), len(self.queues[i]))
        if self.trace is not None:
            self.trace.record(now, "fire", self.order[i],
                              consumed=int(consumed))

        if self._timing.static:
            if consumed:
                self.engine.schedule(
                    now + t_i,
                    partial(self._complete, i, ids, now),
                    priority=i,
                )
            else:
                # An empty firing's completion mutates no queue, so its
                # bookkeeping can run here and the completion event be
                # elided (~40% of all events under light load).  Times
                # and charges reproduce _complete's exact expressions:
                # ``done - now`` is the event-time subtraction the
                # deferred handler would have computed.  The next firing
                # is scheduled unconditionally; if another node's
                # completion triggers shutdown before it fires, it
                # early-returns exactly like a post-shutdown event.
                # _maybe_shutdown is provably a no-op here: its
                # conditions can only become true inside a completion
                # handler, which triggers shutdown itself.
                done = now + t_i
                if done > self._last_activity:
                    self._last_activity = done
                charge = (done - now) if self.charge_empty else 0.0
                self.trackers[i].record_firing(0, charge)
                self._active_time[i] += charge
                if self.collector is not None:
                    self.collector.on_complete(i, done, done - now)
                self.engine.schedule(
                    done + self._wait_after(i),
                    self._fire_fns[i],
                    priority=self._prio_fire,
                )
        else:
            self._drain_gps(now)
            tag = self._timing.begin_firing(now, i, t_i)
            self._inflight_firings[tag] = (i, ids, now)
            self._resched_gps(now)

    def _complete(self, i: int, ids: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._last_activity = max(self._last_activity, now)
        consumed = ids.size
        # Charge the realized firing duration as active time (equals t_i
        # under idealized timing); an empty firing is charged only under
        # the paper's accounting, not under the vacation ablation.
        charge = (now - start) if (consumed > 0 or self.charge_empty) else 0.0
        self.trackers[i].record_firing(int(consumed), charge)
        self._active_time[i] += charge
        if self.collector is not None:
            self.collector.on_complete(i, now, now - start)
        if consumed:
            produced = 0
            exited = None
            for dst, gain, stream in self._channels[i]:
                outputs = np.repeat(
                    ids, gain.sample(self._rng_of[stream], consumed)
                )
                produced += int(outputs.size)
                if dst is None:
                    exited = outputs
                    origins = self._times[outputs]
                    self.ledger.record_exits(origins, now, ids=outputs)
                    sink = self.sink_ledgers[self.order[i]]
                    if sink is not self.ledger:
                        sink.record_exits(origins, now, ids=outputs)
                    continue
                q = self.queues[dst]
                dropped = q.push_many(outputs, now=now)
                self._in_flight += int(outputs.size)
                if self.collector is not None:
                    self.collector.on_enqueue(
                        dst, now, int(outputs.size), len(q)
                    )
                if dropped is not None and dropped.size:
                    self._on_shed(dst, dropped, now)
            self._in_flight -= int(consumed)
            if self._watchdog is not None and exited is not None and exited.size:
                slack = float(self._times[exited].min()) + self.deadline - now
                self._watchdog.observe_exit(now, slack, self._in_flight)
            if self.trace is not None:
                self.trace.record(
                    now, "complete", self.order[i],
                    consumed=int(consumed), produced=produced,
                )
        # Next firing after the enforced wait.
        if not self._shutdown:
            self.engine.schedule(
                now + self._wait_after(i),
                self._fire_fns[i],
                priority=self._prio_fire,
            )
        self._maybe_shutdown()

    # -- GPS plumbing ----------------------------------------------------------

    def _drain_gps(self, now: float) -> None:
        for t_done, tag in self._timing.advance(now):
            info = self._inflight_firings.pop(tag, None)
            if info is None:
                raise SimulationError(f"unknown GPS completion tag {tag!r}")
            i, ids, start = info
            self._complete(i, ids, start)

    def _on_gps_event(self) -> None:
        self._gps_event = None
        self._drain_gps(self.engine.now)
        self._resched_gps(self.engine.now)

    def _resched_gps(self, now: float) -> None:
        if self._gps_event is not None:
            self._gps_event.cancel()
            self._gps_event = None
        nxt = self._timing.next_completion(now)
        if nxt is not None:
            t_next = max(nxt[0], now)
            self._gps_event = self.engine.schedule(
                t_next, self._on_gps_event, priority=0
            )

    # -- run ---------------------------------------------------------------------

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True

        self._times = self.arrivals.generate(
            self.n_items, self.rng.stream("arrivals")
        )
        if self._faults is not None:
            # Arrival bursts remap the same seed-determined stream; the
            # RNG draw above is identical with or without faults.
            self._times = self._faults.transform_arrivals(self._times)
        # Closed-form fast path (array computation, no event loop):
        # bit-identical to the event loop when taken, bounded queues and
        # arrival bursts included (see repro.sim.fastpath).  Returns None
        # to fall back — e.g. under REPRO_BACKEND=python or a watchdog.
        hwm_items = run_enforced_fast(self, self._times)
        if hwm_items is None:
            # No per-arrival events: the source node's firings drain the
            # arrival array lazily (see module docstring).  Firings
            # self-perpetuate until shutdown, so the drain always happens.
            self._schedule_initial_firings()

            self.engine.run(max_events=self.max_events)

            self._check_drained()
            hwm_items = np.asarray(
                [q.max_depth for q in self.queues], dtype=float
            )

        return self._collect(hwm_items)

    # -- co-simulation (shared engine) --------------------------------------

    def prepare(self) -> None:
        """Arm this simulator on its engine without running the loop.

        The co-simulation protocol (:mod:`repro.tenancy.sim`): each of K
        simulators sharing one :class:`~repro.des.engine.Engine` calls
        ``prepare()``, the owner runs the engine once to quiescence, and
        each collects its own metrics with :meth:`finalize`.  The
        closed-form fast path is intentionally skipped — co-scheduled
        runs need the explicit event loop.  Single use, like :meth:`run`.
        """
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True
        self._times = self.arrivals.generate(
            self.n_items, self.rng.stream("arrivals")
        )
        if self._faults is not None:
            self._times = self._faults.transform_arrivals(self._times)
        self._schedule_initial_firings()

    def finalize(self) -> SimMetrics:
        """Collect metrics after a shared engine run following :meth:`prepare`."""
        if self._times is None:
            raise SimulationError("finalize() requires prepare() first")
        self._check_drained()
        hwm_items = np.asarray(
            [q.max_depth for q in self.queues], dtype=float
        )
        return self._collect(hwm_items)

    def _schedule_initial_firings(self) -> None:
        self._fire_fns = [partial(self._fire, i) for i in range(self._n_nodes)]
        for i, fire in enumerate(self._fire_fns):
            self.engine.schedule(
                float(self.start_offsets[i]), fire, priority=self._prio_fire
            )

    def _check_drained(self) -> None:
        if self._in_flight != 0 or self._inflight_firings:
            raise SimulationError(
                f"pipeline failed to drain: {self._in_flight} items in "
                f"flight, {len(self._inflight_firings)} firings active"
            )

    def _collect(self, hwm_items: np.ndarray) -> SimMetrics:
        makespan = max(self._last_activity, float(self._times[-1]))
        if makespan <= 0:
            makespan = float("nan")
        af = float(np.sum(self._active_time)) / (self._n_nodes * makespan)
        hwm = hwm_items / self._v
        extra = {
            "timing": self._timing_name,
            "charge_empty": self.charge_empty,
            "ledger": self.ledger,
            "order": self.order,
            "sinks": dict(self.sink_ledgers),
        }
        degraded_intervals: tuple[tuple[float, float], ...] = ()
        if self._watchdog is not None:
            degraded_intervals = self._watchdog.finalize(makespan)
        if (
            self._watchdog is not None
            or self._faults is not None
            or self._shed_counts.any()
        ):
            extra["resilience"] = {
                "shed_per_node": self._shed_counts.copy(),
                "shed_total": int(self._shed_counts.sum()),
                "dropped_items": self.ledger.dropped_items,
                "degraded_intervals": degraded_intervals,
                "degraded_time": (
                    self._watchdog.degraded_time(makespan)
                    if self._watchdog is not None
                    else 0.0
                ),
                "degradations": (
                    self._watchdog.degradations
                    if self._watchdog is not None
                    else 0
                ),
            }
        if self.collector is not None:
            extra["telemetry"] = self.collector.finalize(
                strategy="enforced",
                makespan=makespan,
                events_processed=self.engine.events_processed,
                wall_time=self.engine.wall_time,
                degraded_intervals=degraded_intervals,
            )
        return SimMetrics(
            strategy="enforced",
            n_items=self.n_items,
            makespan=makespan,
            active_time_per_node=self._active_time.copy(),
            active_fraction=af,
            missed_items=self.ledger.missed_items,
            miss_rate=self.ledger.miss_rate(self.n_items),
            outputs=self.ledger.outputs,
            mean_latency=self.ledger.latency.mean,
            max_latency=self.ledger.latency.max
            if self.ledger.outputs
            else math.nan,
            queue_hwm_vectors=hwm,
            firings=np.asarray([tr.firings for tr in self.trackers]),
            empty_firings=np.asarray([tr.empty_firings for tr in self.trackers]),
            mean_occupancy=np.asarray(
                [tr.mean_occupancy for tr in self.trackers]
            ),
            extra=extra,
        )
