"""The enforced-waits fast path on bounded queues and arrival bursts.

The closed-form fast path (:mod:`repro.sim.fastpath`) covers bounded
queues under every shed policy and fault plans made only of arrival
bursts.  ``sim/reference.py`` has no bounded queues, so the oracle here
is the simulator's own event loop, forced with ``use_backend("python")``.
Every comparison is bit for bit, and every fast run must report
``events_processed == 0`` so a silent fallback cannot pass vacuously.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

from repro.arrivals.poisson import PoissonArrivals
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
)
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.errors import SimulationError
from repro.resilience import ArrivalBurst, RuntimeFaultPlan
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.simd.backend import use_backend

POLICIES = ("drop-newest", "drop-oldest", "deadline-aware")
BURSTS = (None, 2.0, 3.0)
CAPACITIES = ("never", "1.25x-hwm", "v")
WIDTHS = (8, 16)
SEEDS = (0, 1, 2)
N_ITEMS = 1000
WAITS = np.asarray([1.0, 1.0, 2.5])
DEADLINE = 40.0


def _pipeline(v: int) -> PipelineSpec:
    return PipelineSpec(
        nodes=(
            NodeSpec("a", service_time=1.0, gain=CensoredPoissonGain(1.2, 4)),
            NodeSpec("b", service_time=0.7, gain=BernoulliGain(0.8)),
            NodeSpec("c", service_time=0.5, gain=DeterministicGain(2)),
        ),
        vector_width=v,
    )


def _tau(v: int) -> float:
    """Mean inter-arrival time loading the nodes to 50-72% at width v."""
    return 4.0 / v


def _faults(v: int, burst: float | None) -> RuntimeFaultPlan | None:
    if burst is None:
        return None
    span = N_ITEMS * _tau(v)
    return RuntimeFaultPlan(
        bursts=(ArrivalBurst(0.25 * span, 0.55 * span, burst),)
    )


def _sim(v, seed, burst, **kw) -> EnforcedWaitsSimulator:
    return EnforcedWaitsSimulator(
        _pipeline(v), WAITS, PoissonArrivals(_tau(v)), DEADLINE, N_ITEMS,
        seed=seed, runtime_faults=_faults(v, burst), **kw,
    )


def _unbounded_hwm(v, seed, burst) -> int:
    sim = _sim(v, seed, burst)
    sim.run()
    return max(q.max_depth for q in sim.queues)


def _capacity(kind: str, v: int, seed: int, burst) -> int:
    if kind == "never":
        # The deepest queue reaches the bound exactly and never exceeds it.
        return _unbounded_hwm(v, seed, burst)
    if kind == "1.25x-hwm":
        # The R1 recipe: 25% above an unbounded run at the planned rate.
        return max(v, math.ceil(1.25 * _unbounded_hwm(v, seed, None)))
    return v


def _queue_state(sim):
    return [
        (q.total_pushed, q.total_popped, q.total_shed, q.dropped_by_clear,
         len(q), q.max_depth)
        for q in sim.queues
    ]


def _assert_same_value(a, b, what):
    if isinstance(a, np.ndarray):
        assert np.array_equal(a, b, equal_nan=True), f"{what}: {a!r} != {b!r}"
    elif isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), f"{what}: {b!r}"
    else:
        assert a == b, f"{what}: {a!r} != {b!r}"


def _assert_bit_identical(fast_sim, fast, slow_sim, slow):
    for f in dataclasses.fields(fast):
        if f.name != "extra":
            _assert_same_value(
                getattr(fast, f.name), getattr(slow, f.name), f.name
            )
    res_f = fast.extra.get("resilience")
    res_s = slow.extra.get("resilience")
    assert (res_f is None) == (res_s is None)
    if res_f is not None:
        assert res_f.keys() == res_s.keys()
        for key in res_f:
            _assert_same_value(res_f[key], res_s[key], f"resilience.{key}")
    assert _queue_state(fast_sim) == _queue_state(slow_sim)
    lf, ls = fast_sim.ledger, slow_sim.ledger
    for attr in ("dropped_items", "dropped_outputs", "missed_items",
                 "outputs", "late_outputs", "items_with_output"):
        assert getattr(lf, attr) == getattr(ls, attr), attr
    if lf.outputs:
        assert lf.latency.mean == ls.latency.mean
        assert lf.latency.std == ls.latency.std


def _run_both(v, seed, burst, **kw):
    with use_backend("vector"):
        fast_sim = _sim(v, seed, burst, **kw)
        fast = fast_sim.run()
    with use_backend("python"):
        slow_sim = _sim(v, seed, burst, **kw)
        slow = slow_sim.run()
    assert slow_sim.engine.events_processed > 0
    return fast_sim, fast, slow_sim, slow


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("v", WIDTHS)
@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("burst", BURSTS)
@pytest.mark.parametrize("policy", POLICIES)
def test_shedding_fast_path_matches_event_loop(
    policy, burst, capacity, v, seed
):
    with use_backend("vector"):
        cap = _capacity(capacity, v, seed, burst)
    fast_sim, fast, slow_sim, slow = _run_both(
        v, seed, burst, queue_capacity=cap, shed_policy=policy
    )
    assert fast_sim.engine.events_processed == 0
    _assert_bit_identical(fast_sim, fast, slow_sim, slow)
    if capacity == "never":
        assert fast_sim.queues and not fast_sim._shed_counts.any()
        assert max(q.max_depth for q in fast_sim.queues) == cap


@pytest.mark.parametrize("v", WIDTHS)
def test_grid_sheds_at_every_queue(v):
    """The tightest bound sheds at the head and at interior queues, so
    the grid above exercises the scan on every kind of push."""
    with use_backend("vector"):
        sim = _sim(v, 0, 3.0, queue_capacity=v, shed_policy="drop-oldest")
        sim.run()
    assert sim.engine.events_processed == 0
    assert all(q.total_shed > 0 for q in sim.queues)


@pytest.mark.parametrize("burst", BURSTS)
def test_raise_on_overflow_keeps_the_event_path_error(burst):
    kw = dict(queue_capacity=8)
    messages = []
    for backend in ("vector", "python"):
        with use_backend(backend):
            with pytest.raises(SimulationError, match="overflowed") as err:
                _sim(8, 0, burst, **kw).run()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_raise_mode_without_overflow_takes_the_fast_path():
    with use_backend("vector"):
        cap = _unbounded_hwm(8, 0, 2.0)
    fast_sim, fast, slow_sim, slow = _run_both(8, 0, 2.0, queue_capacity=cap)
    assert fast_sim.engine.events_processed == 0
    _assert_bit_identical(fast_sim, fast, slow_sim, slow)


def test_spikes_stalls_and_watchdog_stay_on_the_event_path():
    from repro.resilience import DeadlineWatchdog, NodeStall, ServiceSpike

    cases = [
        dict(runtime_faults=RuntimeFaultPlan(
            service_spikes=(ServiceSpike(1, 50.0, 80.0, 2.0),))),
        dict(runtime_faults=RuntimeFaultPlan(
            stalls=(NodeStall(0, 50.0, 10.0),))),
        dict(watchdog=DeadlineWatchdog(DEADLINE)),
    ]
    for kw in cases:
        with use_backend("vector"):
            sim = EnforcedWaitsSimulator(
                _pipeline(8), WAITS, PoissonArrivals(_tau(8)), DEADLINE,
                N_ITEMS, queue_capacity=24, shed_policy="drop-newest", **kw,
            )
            sim.run()
        assert sim.engine.events_processed > 0, kw


def test_fast_path_run_is_freed_without_the_cycle_collector():
    """A finished fast-path run holds no reference cycle, so dropping it
    frees it at once; cyclic simulators piled up between full GC passes
    and inflated the resident set of long trial campaigns."""
    gc.collect()
    gc.disable()
    try:
        with use_backend("vector"):
            sim = _sim(8, 0, 3.0, queue_capacity=8,
                       shed_policy="deadline-aware")
            sim.run()
        assert sim.engine.events_processed == 0
        assert sim._shed_counts.any()
        ref = weakref.ref(sim)
        del sim
        assert ref() is None
    finally:
        gc.enable()


def test_deadline_aware_queue_outliving_its_simulator_fails_clearly():
    with use_backend("vector"):
        sim = _sim(8, 0, None, queue_capacity=8,
                   shed_policy="deadline-aware")
        sim.run()
    queue = sim.queues[0]
    del sim
    gc.collect()
    queue.push_many(np.arange(8, dtype=np.int64))
    with pytest.raises(SimulationError, match="outlived its simulator"):
        queue.push_many(np.arange(8, dtype=np.int64), now=0.0)
