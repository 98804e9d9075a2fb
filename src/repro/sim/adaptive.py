"""Adaptive firing policies: an extension beyond the paper's fixed waits.

The paper enforces a *fixed* wait ``w_i`` after every firing "for
simplicity of analysis" and leaves richer policies to future work.  This
module implements the natural next step: keep the optimizer's ``w_i`` as
the *maximum* wait, but allow a node to fire early when additional
information says waiting longer cannot help:

- ``"full-vector"`` — fire as soon as a full vector of ``v`` inputs is
  queued.  Waiting past that point cannot improve SIMD occupancy (a
  firing consumes at most ``v``), so early firing strictly reduces
  latency at equal or better occupancy per firing.  Because inputs arrive
  at a bounded rate, a node can accumulate ``v`` items no faster than the
  head-rate cap allows, so the firing rate stays bounded.
- ``"slack"`` — additionally fire early (with however many items are
  queued) when the oldest queued item's remaining deadline slack, after
  accounting for the estimated downstream traversal time, falls below a
  safety factor.  This trades occupancy for deadline safety exactly where
  it is needed.

The fixed-wait behaviour of :class:`~repro.sim.enforced.EnforcedWaitsSimulator`
is the ``"fixed"`` policy baseline; ablation A4 compares all three.

Arrival scheduling
------------------
Early-firing triggers are evaluated at each arrival, so arrivals cannot
be drained wholesale as in the enforced simulator.  Instead, at most one
arrival event is pending at a time (the next undelivered timestamp), and
whenever the head node starts a firing — during which triggers are
inert, since a busy node never fires early — every arrival landing
within the firing window is drained in one chunk at the completion
boundary, before the completion handler re-evaluates the triggers.  In
the saturated regimes that dominate run time, nearly all arrivals take
the chunked path.  The result is bit-identical to the per-item reference
(:class:`~repro.sim.reference.ReferenceAdaptiveSimulator`); telemetry
observations are replayed with the original arrival timestamps.

Items are identified by integer ids (their index in the arrival stream)
carried through the queues; origins are looked up by id at the tail, so
tied arrival timestamps cannot be conflated in miss accounting.

The degraded-mode runtime kwargs (``runtime_faults``, ``queue_capacity``
+ ``shed_policy``, ``watchdog``) work exactly as on
:class:`~repro.sim.enforced.EnforcedWaitsSimulator`; disabled (the
default) they leave the simulation bit-identical to the reference.
"""

from __future__ import annotations

import math

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.queues import ItemQueue
from repro.dataflow.spec import PipelineSpec
from repro.des.engine import Engine
from repro.des.events import EventHandle
from repro.des.rng import RngRegistry
from repro.errors import SimulationError, SpecError
from repro.obs.telemetry import TelemetryCollector
from repro.resilience.faults import RuntimeFaultPlan
from repro.resilience.shedding import make_shed_policy
from repro.resilience.watchdog import DeadlineWatchdog
from repro.sim.metrics import LatencyLedger, SimMetrics

__all__ = ["AdaptiveWaitsSimulator"]

_PRIO_ARRIVAL = -1
_PRIO_COMPLETE = 0
_PRIO_FIRE = 1


class AdaptiveWaitsSimulator:
    """Enforced waits with optional early-firing triggers.

    Parameters mirror :class:`~repro.sim.enforced.EnforcedWaitsSimulator`
    (idealized timing only), plus:

    policy:
        ``"fixed"``, ``"full-vector"``, or ``"slack"``.
    slack_factor:
        For ``"slack"``: fire early when the head item's remaining time
        budget is below ``slack_factor`` times the estimated downstream
        traversal time (one period per remaining stage).
    telemetry:
        When True, attach a :class:`~repro.obs.telemetry.RunTelemetry`
        as ``metrics.extra["telemetry"]``.
    runtime_faults:
        Optional :class:`~repro.resilience.faults.RuntimeFaultPlan`
        injecting service spikes, node stalls, and arrival bursts.
    queue_capacity:
        Optional bound on every inter-node queue.  Without a
        ``shed_policy`` an overflow raises
        :class:`~repro.errors.SimulationError`.
    shed_policy:
        ``None`` (default), ``"drop-newest"``, ``"drop-oldest"``, or
        ``"deadline-aware"``; requires ``queue_capacity``.
    watchdog:
        Optional :class:`~repro.resilience.watchdog.DeadlineWatchdog`;
        while degraded, enforced waits are scaled to zero.
    """

    def __init__(
        self,
        pipeline: PipelineSpec,
        waits: np.ndarray,
        arrivals: ArrivalProcess,
        deadline: float,
        n_items: int,
        *,
        seed: int = 0,
        policy: str = "full-vector",
        slack_factor: float = 1.5,
        charge_empty_firings: bool = True,
        telemetry: bool = False,
        max_events: int = 20_000_000,
        runtime_faults: RuntimeFaultPlan | None = None,
        queue_capacity: int | None = None,
        shed_policy: str | None = None,
        watchdog: DeadlineWatchdog | None = None,
    ) -> None:
        waits = np.asarray(waits, dtype=float)
        if waits.shape != (pipeline.n_nodes,):
            raise SpecError(
                f"waits must have length {pipeline.n_nodes}, got {waits.shape}"
            )
        if (waits < 0).any():
            raise SpecError("waits must be >= 0")
        if policy not in ("fixed", "full-vector", "slack"):
            raise SpecError(
                f"policy must be 'fixed', 'full-vector', or 'slack', "
                f"got {policy!r}"
            )
        if slack_factor <= 0:
            raise SpecError(f"slack_factor must be > 0, got {slack_factor}")
        if n_items < 1 or deadline <= 0:
            raise SpecError("need n_items >= 1 and deadline > 0")

        self.pipeline = pipeline
        self.waits = waits
        self.arrivals = arrivals
        self.deadline = float(deadline)
        self.n_items = int(n_items)
        self.policy = policy
        self.slack_factor = float(slack_factor)
        self.charge_empty = bool(charge_empty_firings)
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
        self.engine = Engine()
        n = pipeline.n_nodes
        # Minimum downstream service from node i (inclusive) to the tail:
        # the deadline-aware shed policy's traversal estimate.
        service = pipeline.service_times
        self._downstream_service = np.asarray(
            [float(service[i:].sum()) for i in range(n)]
        )
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
        self.ledger = LatencyLedger(deadline)
        self.collector = (
            TelemetryCollector(
                [node.name for node in pipeline.nodes], pipeline.vector_width
            )
            if telemetry
            else None
        )
        self._active_time = np.zeros(n)
        self._firings = np.zeros(n, dtype=np.int64)
        self._empty_firings = np.zeros(n, dtype=np.int64)
        self._early_firings = np.zeros(n, dtype=np.int64)
        self._items_consumed = np.zeros(n, dtype=np.int64)
        self._busy = [False] * n
        self._pending_fire: list[EventHandle | None] = [None] * n
        self._times: np.ndarray | None = None  # arrival times, set by run()
        self._cursor = 0  # first not-yet-enqueued arrival index
        self._next_arrival: EventHandle | None = None
        self._arrivals_done = False
        self._in_flight = 0
        self._shutdown = False
        self._last_activity = 0.0
        self._ran = False
        # Downstream traversal estimate for the slack policy: one full
        # period per stage from this node (inclusive) to the tail.
        periods = pipeline.service_times + waits
        self._downstream_time = np.asarray(
            [float(periods[i:].sum()) for i in range(n)]
        )

    # -- resilience plumbing -------------------------------------------------

    def _make_slack_fn(self, i: int):
        """Deadline-aware shedding slack for node ``i``'s queue."""

        def slack_of(ids: np.ndarray, now: float) -> np.ndarray:
            return (
                self._times[ids]
                + self.deadline
                - now
                - self._downstream_service[i]
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
        self._maybe_shutdown()

    def _wait_after(self, i: int) -> float:
        """Enforced wait for node ``i``'s next firing (watchdog-scaled)."""
        if self._watchdog is not None and self._watchdog.degraded:
            return 0.0
        return self.waits[i]

    # -- early-fire triggers -------------------------------------------------

    def _should_fire_early(self, i: int) -> bool:
        if self._busy[i] or self._shutdown:
            return False
        if (
            self._faults is not None
            and self._faults.stall_release(i, self.engine.now)
            > self.engine.now
        ):
            # A stalled node cannot usefully fire early; attempting to
            # would just churn the deferral path and miscount
            # early_firings.
            return False
        qlen = len(self.queues[i])
        if qlen == 0:
            return False
        if self.policy == "fixed":
            return False
        if qlen >= self.pipeline.vector_width:
            return True
        if self.policy == "slack":
            head_id = self.queues[i].peek_oldest()
            head_origin = float(self._times[head_id])
            remaining = head_origin + self.deadline - self.engine.now
            return remaining < self.slack_factor * self._downstream_time[i]
        return False

    def _consider_early_fire(self, i: int) -> None:
        if self._should_fire_early(i):
            if self._pending_fire[i] is not None:
                self._pending_fire[i].cancel()
                self._pending_fire[i] = None
            self._early_firings[i] += 1
            self._fire(i)

    # -- event handlers --------------------------------------------------------

    def _arrive_next(self) -> None:
        """Deliver the single pending arrival (head node idle)."""
        self._next_arrival = None
        i = self._cursor
        now = self.engine.now
        dropped = self.queues[0].push(i, now=now)
        self._in_flight += 1
        self._cursor = i + 1
        if self.collector is not None:
            self.collector.on_enqueue(0, now, 1, len(self.queues[0]))
        if dropped is not None and dropped.size:
            self._on_shed(0, dropped, now)
        if self._cursor < self.n_items:
            self._next_arrival = self.engine.schedule(
                float(self._times[self._cursor]),
                self._arrive_next,
                priority=_PRIO_ARRIVAL,
            )
        else:
            self._arrivals_done = True
        self._consider_early_fire(0)

    def _drain_busy_window(self) -> None:
        """Chunk-deliver every arrival with timestamp <= now.

        Scheduled at a head-node firing's completion boundary with
        arrival priority, so it runs after same-time arrivals would have
        and before the completion handler re-checks the triggers.  While
        the node was busy each per-item trigger check was a no-op, so
        delivering the window's arrivals in one chunk is observationally
        identical; telemetry is replayed with true arrival timestamps.
        """
        now = self.engine.now
        c = self._cursor
        times = self._times
        j = int(np.searchsorted(times, now, side="right"))
        dropped = None
        if j > c:
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
                    # Shedding reshuffled the queue; per-item depth
                    # replay no longer reconstructs, so record the
                    # chunk as one observation.
                    self.collector.on_enqueue(0, now, j - c, len(q0))
        if self._cursor < self.n_items:
            self._next_arrival = self.engine.schedule(
                float(times[self._cursor]),
                self._arrive_next,
                priority=_PRIO_ARRIVAL,
            )
        else:
            self._arrivals_done = True
        if dropped is not None and dropped.size:
            self._on_shed(0, dropped, now)

    def _maybe_shutdown(self) -> None:
        if (
            self._arrivals_done
            and self._in_flight == 0
            and not any(self._busy)
            and not self._shutdown
        ):
            self._shutdown = True
            for handle in self._pending_fire:
                if handle is not None:
                    handle.cancel()

    def _fire(self, i: int) -> None:
        if self._shutdown or self._busy[i]:
            return
        now = self.engine.now
        if self._faults is not None:
            release = self._faults.stall_release(i, now)
            if release > now:
                # Stalled: defer this firing to the stall's end.
                if self._pending_fire[i] is not None:
                    self._pending_fire[i].cancel()
                self._pending_fire[i] = self.engine.schedule(
                    release, lambda i=i: self._fire(i), priority=_PRIO_FIRE
                )
                return
        self._pending_fire[i] = None
        self._busy[i] = True
        ids = self.queues[i].pop_up_to(self.pipeline.vector_width)
        t_i = self.pipeline.nodes[i].service_time
        if self._faults is not None:
            t_i = t_i * self._faults.service_factor(i, now)
        if self.collector is not None:
            self.collector.on_fire(
                i, now, int(ids.size), len(self.queues[i])
            )
        done = now + t_i
        if i == 0 and self._next_arrival is not None:
            # Arrivals inside this firing window cannot trigger anything;
            # fold them into one chunk event at the completion boundary.
            if float(self._times[self._cursor]) <= done:
                self._next_arrival.cancel()
                self._next_arrival = None
                self.engine.schedule(
                    done, self._drain_busy_window, priority=_PRIO_ARRIVAL
                )
        self.engine.schedule(
            done,
            lambda i=i, o=ids, s=now: self._complete(i, o, s),
            priority=_PRIO_COMPLETE,
        )

    def _complete(self, i: int, ids: np.ndarray, start: float) -> None:
        now = self.engine.now
        self._busy[i] = False
        self._last_activity = max(self._last_activity, now)
        consumed = int(ids.size)
        charge = (
            (now - start) if (consumed > 0 or self.charge_empty) else 0.0
        )
        self._active_time[i] += charge
        self._firings[i] += 1
        if consumed == 0:
            self._empty_firings[i] += 1
        self._items_consumed[i] += consumed
        if self.collector is not None:
            self.collector.on_complete(i, now, now - start)
        if consumed:
            gain = self.pipeline.nodes[i].gain
            counts = gain.sample(self.rng.stream(f"node{i}.gain"), consumed)
            outputs = np.repeat(ids, counts)
            if i + 1 < self.pipeline.n_nodes:
                dropped = self.queues[i + 1].push_many(outputs, now=now)
                self._in_flight += int(outputs.size) - consumed
                if self.collector is not None:
                    self.collector.on_enqueue(
                        i + 1, now, int(outputs.size), len(self.queues[i + 1])
                    )
                if dropped is not None and dropped.size:
                    self._on_shed(i + 1, dropped, now)
                self._consider_early_fire(i + 1)
            else:
                self.ledger.record_exits(self._times[outputs], now, ids=outputs)
                self._in_flight -= consumed
                if self._watchdog is not None and outputs.size:
                    slack = (
                        float(self._times[outputs].min())
                        + self.deadline
                        - now
                    )
                    self._watchdog.observe_exit(now, slack, self._in_flight)
        if not self._shutdown:
            self._pending_fire[i] = self.engine.schedule(
                now + self._wait_after(i),
                lambda i=i: self._fire(i),
                priority=_PRIO_FIRE,
            )
            # The queue may already satisfy a trigger (e.g. it filled
            # while this firing ran).
            self._consider_early_fire(i)
        self._maybe_shutdown()

    # -- run -----------------------------------------------------------------

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
        self._next_arrival = self.engine.schedule(
            float(self._times[0]), self._arrive_next, priority=_PRIO_ARRIVAL
        )
        for i in range(self.pipeline.n_nodes):
            self._pending_fire[i] = self.engine.schedule(
                0.0, lambda i=i: self._fire(i), priority=_PRIO_FIRE
            )
        self.engine.run(max_events=self.max_events)
        if self._in_flight != 0:
            raise SimulationError(
                f"pipeline failed to drain: {self._in_flight} in flight"
            )

        makespan = max(self._last_activity, float(self._times[-1]))
        n = self.pipeline.n_nodes
        v = self.pipeline.vector_width
        af = float(self._active_time.sum()) / (n * makespan)
        extra = {
            "policy": self.policy,
            "early_firings": self._early_firings.copy(),
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
                strategy=f"adaptive:{self.policy}",
                makespan=makespan,
                events_processed=self.engine.events_processed,
                wall_time=self.engine.wall_time,
                degraded_intervals=degraded_intervals,
            )
        with np.errstate(invalid="ignore"):
            occupancy = np.where(
                self._firings > 0,
                self._items_consumed / np.maximum(self._firings, 1) / v,
                np.nan,
            )
        return SimMetrics(
            strategy=f"adaptive:{self.policy}",
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
            queue_hwm_vectors=np.asarray(
                [q.max_depth for q in self.queues], dtype=float
            )
            / v,
            firings=self._firings.copy(),
            empty_firings=self._empty_firings.copy(),
            mean_occupancy=occupancy,
            extra=extra,
        )
