"""Discrete-event simulator of enforced waits on a dataflow DAG.

The chain simulator (:class:`~repro.sim.enforced.EnforcedWaitsSimulator`)
routes each node's outputs to the single next node.  This simulator
generalizes routing to a validated single-source DAG
(:class:`~repro.dataflow.graph.DataflowGraph`): a firing's consumed items
are replicated along every out-edge, each edge sampling its own gain
distribution on its own RNG stream, and a fan-in node's queue merges the
pushes of all its predecessors.

**Deterministic fan-in.**  Same-time completions are ordered by the
completing node's topological index: node ``i``'s completion events carry
priority ``i`` and firing starts carry priority ``N`` (arrivals keep the
usual front-of-time rank).  A fan-in queue therefore receives same-time
pushes in topological-predecessor order — a total order that a schedule
replay (the fast path) can reproduce with a stable merge by ``(time,
predecessor topo index)``.  On a chain this priority scheme preserves the
arrivals < completions < firings classes of the chain simulator, and
same-time completions of *different* nodes touch disjoint queues, so a
chain-shaped graph simulates **bit-identically** to the chain simulator
(pinned by ``tests/test_sim_equivalence.py``).

**RNG stream identity.**  A node with out-degree <= 1 samples on the
chain simulator's stream ``node{i}.gain`` (``i`` its topological index);
sinks sample their node gain on the same stream (the chain-tail
convention).  Only fan-out nodes (out-degree >= 2) use per-edge streams
``edge{i}->{j}.gain`` — so chain-shaped graphs replay the chain
simulator's exact draws.

**Per-sink ledgers.**  Every sink gets its own
:class:`~repro.sim.metrics.LatencyLedger` (``metrics.extra["sinks"]``)
in addition to the global ledger that scores an item as missed when any
output is late at any sink.

The simulator intentionally supports the idealized-timing core model
only; the resilience layer (faults, bounded queues, watchdog) and GPS
timing remain chain-only features.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.gains import GainDistribution
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.queues import ItemQueue
from repro.des.engine import Engine
from repro.des.rng import RngRegistry
from repro.errors import SimulationError, SpecError
from repro.sim.fastpath import run_dag_fast
from repro.sim.metrics import LatencyLedger, SimMetrics
from repro.simd.occupancy import OccupancyTracker

__all__ = ["DagEnforcedWaitsSimulator"]

_PRIO_ARRIVAL = -1
# Completions carry the completing node's topological index as priority
# (deterministic fan-in order); firing starts rank after every completion.


class DagEnforcedWaitsSimulator:
    """Simulate a dataflow DAG under per-node enforced waits.

    Parameters
    ----------
    graph:
        The application DAG; validated (single source, acyclic,
        connected) on construction.
    waits:
        Enforced waits ``w_i >= 0``: an array in the graph's
        deterministic topological order, or a ``{name: wait}`` mapping
        (typically from
        :meth:`repro.core.dag.DagEnforcedWaitsSolution.waits_by_name`).
    arrivals / deadline / n_items / seed:
        As for the chain simulator.
    charge_empty_firings:
        The paper's accounting convention (see the chain simulator).
    start_offsets:
        Optional per-node first-firing times, topological order.
    """

    def __init__(
        self,
        graph: DataflowGraph,
        waits: np.ndarray | dict,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        charge_empty_firings: bool = True,
        start_offsets: np.ndarray | None = None,
        keep_latency_samples: bool = False,
        max_events: int = 20_000_000,
    ) -> None:
        if not isinstance(graph, DataflowGraph):
            raise SpecError(
                f"graph must be a DataflowGraph, got {type(graph).__name__}"
            )
        graph.validate()
        self.graph = graph
        self.order: tuple[str, ...] = tuple(graph.topological_order())
        pos = {name: i for i, name in enumerate(self.order)}
        n = graph.n_nodes

        if isinstance(waits, dict):
            missing = [name for name in self.order if name not in waits]
            if missing:
                raise SpecError(f"waits mapping is missing nodes {missing}")
            waits = np.asarray([waits[name] for name in self.order], dtype=float)
        else:
            waits = np.asarray(waits, dtype=float)
        if waits.shape != (n,):
            raise SpecError(f"waits must have length {n}, got {waits.shape}")
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        if n_items < 1:
            raise SpecError(f"n_items must be >= 1, got {n_items}")
        if deadline <= 0:
            raise SpecError(f"deadline must be > 0, got {deadline}")
        if start_offsets is None:
            start_offsets = np.zeros(n)
        else:
            start_offsets = np.asarray(start_offsets, dtype=float)
            if start_offsets.shape != (n,):
                raise SpecError(f"start_offsets must have length {n}")
            if (start_offsets < 0).any():
                raise SpecError("start_offsets must be >= 0")
        self.start_offsets = start_offsets

        self.waits = waits
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.charge_empty = bool(charge_empty_firings)
        self.max_events = max_events

        self.rng = RngRegistry(seed)
        self.engine = Engine()
        self.queues = [
            ItemQueue(f"q{i}", dtype=np.int64) for i in range(n)
        ]
        self.trackers = [
            OccupancyTracker(name, graph.vector_width) for name in self.order
        ]
        self.ledger = LatencyLedger(deadline, keep_samples=keep_latency_samples)
        self.sink_names: tuple[str, ...] = tuple(
            sorted(graph.sinks(), key=pos.__getitem__)
        )
        self.sink_ledgers: dict[str, LatencyLedger] = {
            name: LatencyLedger(deadline, keep_samples=keep_latency_samples)
            for name in self.sink_names
        }

        # Per-node output channels: (dst index or None for a sink exit,
        # gain distribution, RNG stream name), in destination topological
        # order.  Out-degree <= 1 keeps the chain stream name (see the
        # module docstring).
        self._channels: list[list[tuple[int | None, GainDistribution, str]]] = []
        for i, name in enumerate(self.order):
            succs = graph.successors(name)
            chans: list[tuple[int | None, GainDistribution, str]] = []
            if not succs:
                chans.append((None, graph.spec(name).gain, f"node{i}.gain"))
            elif len(succs) == 1:
                chans.append(
                    (pos[succs[0]], graph.edge_gain(name, succs[0]),
                     f"node{i}.gain")
                )
            else:
                for s in succs:
                    chans.append(
                        (pos[s], graph.edge_gain(name, s),
                         f"edge{i}->{pos[s]}.gain")
                    )
            self._channels.append(chans)

        self._times: np.ndarray | None = None
        self._cursor = 0
        self._arrivals_done = False
        self._in_flight = 0
        self._shutdown = False
        self._last_activity = 0.0
        self._active_time = np.zeros(n)
        self._ran = False

        # Hot-path state (chain-simulator layout; the fast path reads
        # the same attributes).
        self._service_f = [
            float(graph.spec(name).service_time) for name in self.order
        ]
        self._waits_f = [float(w) for w in waits]
        self._rng_of = {
            stream: self.rng.stream(stream)
            for chans in self._channels
            for (_, _, stream) in chans
        }
        self._fire_fns = [partial(self._fire, i) for i in range(n)]
        self._v = int(graph.vector_width)
        self._n_nodes = n
        self._prio_fire = n

    # -- event handlers ------------------------------------------------------

    def _drain_arrivals(self, now: float) -> None:
        """Enqueue every arrival with timestamp <= ``now`` (chunked)."""
        c = self._cursor
        if c >= self.n_items:
            return
        j = int(np.searchsorted(self._times, now, side="right"))
        if j <= c:
            return
        self.queues[0].push_many(np.arange(c, j, dtype=np.int64), now=now)
        self._in_flight += j - c
        self._cursor = j
        if j >= self.n_items:
            self._arrivals_done = True

    def _maybe_shutdown(self) -> None:
        if self._arrivals_done and self._in_flight == 0 and not self._shutdown:
            self._shutdown = True

    def _fire(self, i: int) -> None:
        if self._shutdown:
            return
        now = self.engine.now
        if i == 0:
            self._drain_arrivals(now)
        ids = self.queues[i].pop_up_to(self._v)
        consumed = ids.size
        t_i = self._service_f[i]
        if consumed:
            self.engine.schedule(
                now + t_i,
                partial(self._complete, i, ids, now),
                priority=i,
            )
        else:
            # Empty-firing elision, exactly as the chain simulator: the
            # completion mutates no queue, so its bookkeeping runs here.
            done = now + t_i
            if done > self._last_activity:
                self._last_activity = done
            charge = (done - now) if self.charge_empty else 0.0
            self.trackers[i].record_firing(0, charge)
            self._active_time[i] += charge
            self.engine.schedule(
                done + self._waits_f[i],
                self._fire_fns[i],
                priority=self._prio_fire,
            )

    def _complete(self, i: int, ids: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._last_activity = max(self._last_activity, now)
        consumed = ids.size
        charge = now - start
        self.trackers[i].record_firing(int(consumed), charge)
        self._active_time[i] += charge
        produced = 0
        for dst, gain, stream in self._channels[i]:
            counts = gain.sample(self._rng_of[stream], consumed)
            outputs = np.repeat(ids, counts)
            if dst is not None:
                self.queues[dst].push_many(outputs, now=now)
                produced += int(outputs.size)
            else:
                origins = self._times[outputs]
                self.ledger.record_exits(origins, now, ids=outputs)
                self.sink_ledgers[self.order[i]].record_exits(
                    origins, now, ids=outputs
                )
        self._in_flight += produced - int(consumed)
        if not self._shutdown:
            self.engine.schedule(
                now + self._waits_f[i],
                self._fire_fns[i],
                priority=self._prio_fire,
            )
        self._maybe_shutdown()

    # -- run ---------------------------------------------------------------

    def run(self) -> SimMetrics:
        """Execute the simulation and return its metrics (single use)."""
        if self._ran:
            raise SimulationError("simulator instances are single-use")
        self._ran = True

        self._times = self.arrivals.generate(
            self.n_items, self.rng.stream("arrivals")
        )
        hwm_items = run_dag_fast(self, self._times)
        if hwm_items is None:
            for i in range(self._n_nodes):
                self.engine.schedule(
                    float(self.start_offsets[i]),
                    self._fire_fns[i],
                    priority=self._prio_fire,
                )
            self.engine.run(max_events=self.max_events)
            if self._in_flight != 0:
                raise SimulationError(
                    f"dataflow graph failed to drain: {self._in_flight} "
                    "items in flight"
                )
            hwm_items = np.asarray(
                [q.max_depth for q in self.queues], dtype=float
            )

        makespan = max(self._last_activity, float(self._times[-1]))
        if makespan <= 0:
            makespan = float("nan")
        n = self._n_nodes
        af = float(np.sum(self._active_time)) / (n * makespan)
        extra = {
            "timing": "idealized",
            "charge_empty": self.charge_empty,
            "ledger": self.ledger,
            "order": self.order,
            "sinks": dict(self.sink_ledgers),
        }
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
            queue_hwm_vectors=hwm_items / self._v,
            firings=np.asarray([tr.firings for tr in self.trackers]),
            empty_firings=np.asarray(
                [tr.empty_firings for tr in self.trackers]
            ),
            mean_occupancy=np.asarray(
                [tr.mean_occupancy for tr in self.trackers]
            ),
            extra=extra,
        )
