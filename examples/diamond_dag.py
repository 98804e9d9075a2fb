#!/usr/bin/env python
"""Beyond chains: design and run a branching (diamond) dataflow DAG.

The paper's optimization is stated for linear pipelines; this example
exercises the DAG generalization end to end on a diamond topology —

              .--> left  --.
        src --|            |--> tail
              '--> right --'

— through all three layers:

1. **Plan**: per-edge chain-stability constraints and per-sink path
   deadlines (`repro.core.dag`), solved with the same interior-point
   machinery as the chain case.
2. **Validate**: the enforced-waits discrete-event simulator
   (`repro.sim.enforced`, which takes a graph as readily as a chain)
   replays the planned operating point; the acceptance bar is zero
   deadline misses, scored per sink.
3. **Run live**: `PipelineExecutor.from_graph` executes the same graph
   thread-per-node on the wall clock, with a per-sink latency ledger.

A fan-out node *broadcasts* each batch to all of its successors and the
branch nodes do the filtering (Bernoulli gains), so the live semantics
match the simulator's: keep fan-out edges at deterministic unit gain and
put the selectivity in the branch nodes themselves.

Run:  python examples/diamond_dag.py
"""

import time

import numpy as np

from repro.arrivals.fixed import FixedRateArrivals
from repro.core.dag import DagRealTimeProblem, solve_enforced_waits_dag
from repro.dataflow.gains import BernoulliGain, DeterministicGain
from repro.dataflow.graph import DataflowGraph
from repro.dataflow.spec import NodeSpec
from repro.runtime.executor import PipelineExecutor
from repro.runtime.kernels import SpinKernel
from repro.sim.enforced import EnforcedWaitsSimulator

V = 8  # SIMD vector width
TAU0 = 0.02  # inter-arrival time (seconds): one item every 20 ms
DEADLINE = 2.0  # every output due within 2 s of its item's arrival


def build_graph() -> DataflowGraph:
    """Diamond with unit-gain fan-out edges and filtering branches."""
    g = DataflowGraph(V)
    g.add_node(NodeSpec("src", 0.004, DeterministicGain(1)))
    g.add_node(NodeSpec("left", 0.003, BernoulliGain(0.6)))
    g.add_node(NodeSpec("right", 0.005, BernoulliGain(0.4)))
    g.add_node(NodeSpec("tail", 0.003, DeterministicGain(1)))
    g.add_edge("src", "left", DeterministicGain(1))  # broadcast copy
    g.add_edge("src", "right", DeterministicGain(1))  # broadcast copy
    g.add_edge("left", "tail")  # inherited: left's Bernoulli(0.6)
    g.add_edge("right", "tail")  # inherited: right's Bernoulli(0.4)
    return g


def main() -> None:
    graph = build_graph()
    print(graph.describe())
    gains = graph.total_gains()
    print(
        "total gains G_i:",
        {n: round(g, 3) for n, g in gains.items()},
    )
    print()

    # -- 1. Plan: solve the DAG enforced-waits problem --------------------
    sol = solve_enforced_waits_dag(DagRealTimeProblem(graph, TAU0, DEADLINE))
    assert sol.feasible, sol.diagnosis
    print(f"solved via {sol.method}: active fraction {sol.active_fraction:.4f}")
    print(
        "planned waits (s):",
        {n: round(w, 4) for n, w in sol.waits_by_name.items()},
    )
    print()

    # -- 2. Validate by simulation at the planned point -------------------
    sim = EnforcedWaitsSimulator(
        graph,
        sol.waits_by_name,
        arrivals=FixedRateArrivals(TAU0),
        deadline=DEADLINE,
        n_items=5000,
        seed=0,
    )
    m = sim.run()
    print(
        f"simulated 5000 items: outputs={m.outputs}, "
        f"missed={m.missed_items}, AF={m.active_fraction:.4f}"
    )
    for name, ledger in m.extra["sinks"].items():
        print(f"  sink {name!r}: outputs={ledger.outputs}, "
              f"missed={ledger.missed_items}")
    assert m.missed_items == 0
    print()

    # -- 3. Run it live on the wall clock ---------------------------------
    kernels = {
        name: SpinKernel(
            name,
            graph.spec(name).gain,
            nominal_service=graph.spec(name).service_time,
            seed=i,
        )
        for i, name in enumerate(graph.topological_order())
    }
    ex = PipelineExecutor.from_graph(
        graph, kernels, sol.waits_by_name, deadline=DEADLINE, tau0=TAU0
    )
    ex.start()
    for _ in range(20):  # 20 vectors at the planned head rate
        ex.submit(np.zeros(V))
        time.sleep(V * TAU0)
    ex.finish_ingest()
    report = ex.join(timeout=60.0)
    print(
        f"live run: ingested={report.telemetry.items_ingested}, "
        f"outputs={report.outputs}, missed={report.missed_items}"
    )
    for name, ledger in ex.sink_ledgers.items():
        print(f"  sink {name!r}: outputs={ledger.outputs}, "
              f"missed={ledger.missed_items}")
    assert report.missed_items == 0


if __name__ == "__main__":
    main()
