"""The enforced-waits simulator on dataflow DAGs (repro.sim.enforced)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.poisson import PoissonArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.errors import SimulationError, SpecError
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.simd.backend import use_backend

SCALAR_FIELDS = (
    "strategy",
    "n_items",
    "makespan",
    "active_fraction",
    "missed_items",
    "miss_rate",
    "outputs",
    "mean_latency",
    "max_latency",
)
ARRAY_FIELDS = (
    "active_time_per_node",
    "queue_hwm_vectors",
    "firings",
    "empty_firings",
    "mean_occupancy",
)


def _pipeline() -> PipelineSpec:
    return PipelineSpec(
        nodes=(
            NodeSpec("a", service_time=1.0, gain=CensoredPoissonGain(1.2, 4)),
            NodeSpec("b", service_time=0.7, gain=BernoulliGain(0.8)),
            NodeSpec("c", service_time=0.5, gain=DeterministicGain(2)),
        ),
        vector_width=8,
    )


def _diamond() -> DataflowGraph:
    g = DataflowGraph(16)
    g.add_node(NodeSpec("s", 1.5, DeterministicGain(1)))
    g.add_node(NodeSpec("l", 1.0, BernoulliGain(0.8)))
    g.add_node(NodeSpec("r", 2.0, CensoredPoissonGain(1.3, 6)))
    g.add_node(NodeSpec("t", 1.2, DeterministicGain(1)))
    g.add_edge("s", "l", BernoulliGain(0.6))
    g.add_edge("s", "r", BernoulliGain(0.4))
    g.add_edge("l", "t")
    g.add_edge("r", "t")
    return g


def _assert_metrics_equal(m1, m2) -> None:
    import math

    for f in SCALAR_FIELDS:
        a, b = getattr(m1, f), getattr(m2, f)
        if isinstance(a, float) and math.isnan(a) and math.isnan(b):
            continue
        assert a == b, f"{f}: {a!r} != {b!r}"
    for f in ARRAY_FIELDS:
        a, b = getattr(m1, f), getattr(m2, f)
        assert np.array_equal(a, b, equal_nan=True), f"{f}: {a!r} != {b!r}"


class TestChainEquivalence:
    """A chain-shaped DataflowGraph must simulate bit-identically to the
    chain simulator — same RNG streams, same event ordering, same
    metrics, on every execution backend."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("backend", ["vector", "python"])
    def test_bitwise_equal_to_chain_simulator(self, seed, backend):
        waits = np.asarray([3.0, 2.0, 1.5])
        kw = dict(
            arrivals=PoissonArrivals(1.4),
            deadline=40.0,
            n_items=1200,
            seed=seed,
        )
        with use_backend(backend) as be:
            s1 = EnforcedWaitsSimulator(
                DataflowGraph.from_pipeline(_pipeline()), waits, **kw
            )
            m1 = s1.run()
            assert (s1.engine.events_processed == 0) == be.fastpath
            s2 = EnforcedWaitsSimulator(_pipeline(), waits, **kw)
            m2 = s2.run()
        _assert_metrics_equal(m1, m2)
        la, lb = s1.ledger, s2.ledger
        assert la.outputs == lb.outputs
        assert la.missed_items == lb.missed_items
        if la.outputs:
            assert la.latency.mean == lb.latency.mean
            assert la.latency.std == lb.latency.std

    def test_chain_tail_is_the_single_sink_ledger(self):
        waits = np.asarray([3.0, 2.0, 1.5])
        sim = EnforcedWaitsSimulator(
            DataflowGraph.from_pipeline(_pipeline()),
            waits,
            arrivals=PoissonArrivals(1.4),
            deadline=40.0,
            n_items=600,
            seed=0,
        )
        m = sim.run()
        assert sim.sink_names == ("c",)
        sink = m.extra["sinks"]["c"]
        assert sink.outputs == m.outputs
        assert sink.missed_items == m.missed_items


class TestDiamond:
    def test_fastpath_matches_event_loop(self):
        waits = np.asarray([8.0, 14.0, 22.0, 8.0])
        kw = dict(
            arrivals=FixedRateArrivals(9.6),
            deadline=300.0,
            n_items=2000,
            seed=3,
        )
        with use_backend("vector") as be:
            assert be.fastpath
            s1 = EnforcedWaitsSimulator(_diamond(), waits, **kw)
            m1 = s1.run()
            assert s1.engine.events_processed == 0
        with use_backend("python"):
            s2 = EnforcedWaitsSimulator(_diamond(), waits, **kw)
            m2 = s2.run()
            assert s2.engine.events_processed > 0
        _assert_metrics_equal(m1, m2)
        for name in s1.sink_names:
            a = m1.extra["sinks"][name]
            b = m2.extra["sinks"][name]
            assert a.outputs == b.outputs
            assert a.missed_items == b.missed_items
            if a.outputs:
                assert a.latency.mean == b.latency.mean

    def test_planned_point_runs_clean(self):
        """Solve the diamond, then simulate at the planned waits: the
        end-to-end acceptance criterion is zero deadline misses."""
        from repro.core.dag import DagRealTimeProblem, solve_enforced_waits_dag

        sol = solve_enforced_waits_dag(
            DagRealTimeProblem(_diamond(), 0.6, 300.0)
        )
        assert sol.feasible
        sim = EnforcedWaitsSimulator(
            _diamond(),
            sol.waits_by_name,
            arrivals=FixedRateArrivals(0.6),
            deadline=300.0,
            n_items=5000,
            seed=0,
        )
        m = sim.run()
        assert m.missed_items == 0
        assert m.outputs > 0
        assert m.extra["order"] == ("s", "l", "r", "t")

    def test_waits_dict_equals_array(self):
        waits = {"s": 8.0, "l": 14.0, "r": 22.0, "t": 8.0}
        arr = np.asarray([8.0, 14.0, 22.0, 8.0])
        kw = dict(
            arrivals=FixedRateArrivals(9.6),
            deadline=300.0,
            n_items=800,
            seed=1,
        )
        m1 = EnforcedWaitsSimulator(_diamond(), waits, **kw).run()
        m2 = EnforcedWaitsSimulator(_diamond(), arr, **kw).run()
        _assert_metrics_equal(m1, m2)

    def test_multi_sink_ledgers(self):
        """Fan-out to two sinks: each gets its own ledger; the global
        ledger scores every exit."""
        g = DataflowGraph(8)
        g.add_node(NodeSpec("s", 1.0, DeterministicGain(1)))
        g.add_node(NodeSpec("u", 0.5, DeterministicGain(1)))
        g.add_node(NodeSpec("w", 0.5, DeterministicGain(1)))
        g.add_edge("s", "u", BernoulliGain(0.5))
        g.add_edge("s", "w", BernoulliGain(0.5))
        sim = EnforcedWaitsSimulator(
            g,
            np.asarray([4.0, 4.0, 4.0]),
            arrivals=FixedRateArrivals(1.0),
            deadline=100.0,
            n_items=1000,
            seed=0,
        )
        m = sim.run()
        sinks = m.extra["sinks"]
        assert set(sinks) == {"u", "w"}
        assert sinks["u"].outputs + sinks["w"].outputs == m.outputs
        assert m.outputs > 0


class TestValidation:
    def _kw(self):
        return dict(
            arrivals=FixedRateArrivals(9.6),
            deadline=300.0,
            n_items=10,
        )

    def test_rejects_non_graph(self):
        # A bare node list is neither a PipelineSpec nor a DataflowGraph.
        with pytest.raises(SpecError, match="DataflowGraph"):
            EnforcedWaitsSimulator(
                list(_pipeline().nodes), np.zeros(3), **self._kw()
            )

    def test_rejects_wrong_waits_length(self):
        with pytest.raises(SpecError, match="length 4"):
            EnforcedWaitsSimulator(_diamond(), np.zeros(3), **self._kw())

    def test_rejects_negative_waits(self):
        with pytest.raises(SpecError, match=">= 0"):
            EnforcedWaitsSimulator(
                _diamond(), np.asarray([1.0, -1.0, 1.0, 1.0]), **self._kw()
            )

    def test_rejects_incomplete_waits_dict(self):
        with pytest.raises(SpecError, match="missing nodes \\['t'\\]"):
            EnforcedWaitsSimulator(
                _diamond(),
                {"s": 1.0, "l": 1.0, "r": 1.0},
                **self._kw(),
            )

    def test_rejects_unknown_waits_key(self):
        with pytest.raises(SpecError, match="unknown nodes \\['x'\\]"):
            EnforcedWaitsSimulator(
                _diamond(),
                {"s": 1.0, "l": 1.0, "r": 1.0, "t": 1.0, "x": 1.0},
                **self._kw(),
            )

    def test_rejects_invalid_graph(self):
        g = DataflowGraph(8)
        g.add_node(NodeSpec("a", 1.0, DeterministicGain(1)))
        g.add_node(NodeSpec("b", 1.0, DeterministicGain(1)))
        with pytest.raises(SpecError, match="sources"):
            EnforcedWaitsSimulator(g, np.zeros(2), **self._kw())

    def test_single_use(self):
        sim = EnforcedWaitsSimulator(
            _diamond(), np.zeros(4), **self._kw()
        )
        sim.run()
        with pytest.raises(SimulationError, match="single-use"):
            sim.run()


# -- features shared with the chain ----------------------------------------
#
# Faults, bounded queues, the watchdog, GPS timing, telemetry/trace and the
# shared-engine protocol are the same code on every graph.  The diamond
# below runs at its planned point (tau0 = 0.6, D = 300), where a queue
# bound of 60 items overflows the fan-in queue ``t`` only.

PLANNED_WAITS = {"s": 8.1, "l": 15.0, "r": 22.0, "t": 8.4}
SHED_POLICIES = ("drop-newest", "drop-oldest", "deadline-aware")


def _planned(**kw) -> EnforcedWaitsSimulator:
    kw.setdefault("arrivals", PoissonArrivals(0.6))
    kw.setdefault("seed", 3)
    return EnforcedWaitsSimulator(
        _diamond(), PLANNED_WAITS, deadline=300.0, n_items=3000, **kw
    )


def _burst(factor: float, start: float = 0.25, end: float = 0.55):
    from repro.resilience import ArrivalBurst, RuntimeFaultPlan

    span = 3000 * 0.6
    return RuntimeFaultPlan(
        bursts=(ArrivalBurst(start * span, end * span, factor),)
    )


def _queue_state(sim):
    return [
        (q.total_pushed, q.total_popped, q.total_shed, len(q), q.max_depth)
        for q in sim.queues
    ]


def _assert_runs_identical(s1, m1, s2, m2) -> None:
    _assert_metrics_equal(m1, m2)
    r1, r2 = m1.extra.get("resilience"), m2.extra.get("resilience")
    assert (r1 is None) == (r2 is None)
    if r1 is not None:
        assert r1.keys() == r2.keys()
        for key in r1:
            a, b = r1[key], r2[key]
            same = np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            assert same, f"resilience.{key}: {a!r} != {b!r}"
    assert _queue_state(s1) == _queue_state(s2)
    for name in s1.sink_names:
        a, b = m1.extra["sinks"][name], m2.extra["sinks"][name]
        for attr in ("outputs", "late_outputs", "missed_items",
                     "items_with_output", "dropped_items"):
            assert getattr(a, attr) == getattr(b, attr), (name, attr)
        if a.outputs:
            assert a.latency.mean == b.latency.mean
            assert a.latency.std == b.latency.std


def _fast_and_slow(make):
    with use_backend("vector"):
        s1 = make()
        m1 = s1.run()
    with use_backend("python"):
        s2 = make()
        m2 = s2.run()
    assert s1.engine.events_processed == 0
    assert s2.engine.events_processed > 0
    _assert_runs_identical(s1, m1, s2, m2)
    return s1, m1


class TestGraphResilience:
    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_shed_at_fan_in_fast_path_matches_event_loop(self, policy):
        sim, m = _fast_and_slow(
            lambda: _planned(queue_capacity=60, shed_policy=policy)
        )
        assert [q.total_shed for q in sim.queues][:3] == [0, 0, 0]
        assert sim.queues[3].total_shed > 0
        assert m.extra["resilience"]["shed_total"] > 0
        assert m.missed_items >= sim.ledger.dropped_items > 0

    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_shed_under_burst_fast_path_matches_event_loop(self, policy):
        sim, _ = _fast_and_slow(
            lambda: _planned(
                runtime_faults=_burst(2.0), queue_capacity=32,
                shed_policy=policy,
            )
        )
        assert all(q.total_shed > 0 for q in sim.queues)

    def test_two_sink_shed_fast_path_matches_event_loop(self):
        """Fan-out to two sinks: per-sink ledgers and the merged global
        ledger agree with the event loop, shedding included."""
        g = DataflowGraph(8)
        g.add_node(NodeSpec("s", 1.0, DeterministicGain(1)))
        g.add_node(NodeSpec("u", 0.5, CensoredPoissonGain(1.5, 4)))
        g.add_node(NodeSpec("w", 1.0, DeterministicGain(1)))
        g.add_edge("s", "u", BernoulliGain(0.7))
        g.add_edge("s", "w", BernoulliGain(0.9))

        def make():
            return EnforcedWaitsSimulator(
                g, np.asarray([1.0, 2.0, 1.0]), PoissonArrivals(0.3),
                deadline=30.0, n_items=2000, seed=4,
                queue_capacity=12, shed_policy="deadline-aware",
            )

        sim, m = _fast_and_slow(make)
        sinks = m.extra["sinks"]
        assert sinks["u"] is not m.extra["ledger"]
        assert sinks["u"].outputs + sinks["w"].outputs == m.outputs
        assert sim.queues[1].total_shed > 0

    def test_deadline_aware_shed_estimate_is_min_service_to_a_sink(self):
        sim = _planned(queue_capacity=60, shed_policy="deadline-aware")
        # s -> l -> t is the cheaper way out of s: 1.5 + 1.0 + 1.2.
        assert sim._downstream_service == pytest.approx([3.7, 2.2, 3.2, 1.2])

    def test_burst_fault_takes_fast_path(self):
        sim, m = _fast_and_slow(lambda: _planned(runtime_faults=_burst(3.0)))
        assert m.missed_items > 0
        assert not sim._shed_counts.any()

    def test_watchdog_degrades_and_recovers(self):
        from repro.resilience import DeadlineWatchdog

        sim = _planned(
            runtime_faults=_burst(2.0, 0.1, 0.3),
            watchdog=DeadlineWatchdog(300.0, drain_backlog=50),
        )
        m = sim.run()
        assert sim.engine.events_processed > 0
        res = m.extra["resilience"]
        assert res["degradations"] >= 1
        assert res["degraded_time"] > 0
        # Every degraded interval closed well before the stream ended.
        assert all(end < 0.9 * m.makespan for _, end in res["degraded_intervals"])
        assert m.outputs > 0


class TestGraphTimingAndObservers:
    def test_gps_capped_equals_idealized(self):
        """The chain's consistency check on a graph: capped GPS drains
        every firing at exactly rate 1/N, so it reproduces idealized
        timing up to fluid-integrator drift."""
        kw = dict(arrivals=FixedRateArrivals(0.6))
        ideal = _planned(timing="idealized", **kw).run()
        capped = _planned(timing="gps-capped", **kw).run()
        assert capped.active_fraction == pytest.approx(
            ideal.active_fraction, rel=0.02
        )
        assert capped.mean_latency == pytest.approx(ideal.mean_latency, rel=0.05)
        assert capped.outputs == pytest.approx(ideal.outputs, rel=0.02)

    def test_telemetry_and_trace_are_passive(self):
        from repro.des.trace import TraceRecorder

        with use_backend("python"):
            plain_sim = _planned()
            plain = plain_sim.run()
        trace = TraceRecorder()
        observed_sim = _planned(telemetry=True, trace=trace)
        observed = observed_sim.run()
        _assert_runs_identical(plain_sim, plain, observed_sim, observed)
        tel = observed.extra["telemetry"]
        assert [node.name for node in tel.nodes] == ["s", "l", "r", "t"]
        assert len(trace) > 0

    def test_shared_engine_matches_solo_runs(self):
        """prepare()/finalize() on one engine: two co-scheduled graphs
        each reproduce their own solo event-loop run."""
        from repro.des.engine import Engine

        engine = Engine()
        shared = [_planned(seed=s, engine=engine) for s in (0, 1)]
        for sim in shared:
            sim.prepare()
        engine.run()
        for seed, sim in zip((0, 1), shared):
            m = sim.finalize()
            with use_backend("python"):
                solo_sim = _planned(seed=seed)
                solo = solo_sim.run()
            _assert_runs_identical(sim, m, solo_sim, solo)


class TestSinkLedgers:
    @pytest.mark.parametrize("as_graph", [False, True], ids=["chain", "graph"])
    def test_single_sink_entry_is_the_global_ledger(self, as_graph):
        spec = DataflowGraph.from_pipeline(_pipeline()) if as_graph else _pipeline()
        m = EnforcedWaitsSimulator(
            spec, np.asarray([3.0, 2.0, 1.5]), PoissonArrivals(1.4),
            deadline=40.0, n_items=300,
        ).run()
        assert m.extra["sinks"]["c"] is m.extra["ledger"]
        assert m.extra["order"] == ("a", "b", "c")
