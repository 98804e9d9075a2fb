#!/usr/bin/env python
"""Build your own pipeline: the full design workflow on a custom app.

Shows the dataflow-graph API, empirical worst-case calibration, the
a-priori queueing estimate of the b multipliers, and validation by
simulation — everything a user needs to apply the paper's method to a new
irregular streaming application (here: a Viola-Jones-style detection
cascade).

Run:  python examples/custom_pipeline.py
"""

import numpy as np

from repro import (
    EnforcedWaitsSimulator,
    FixedRateArrivals,
    RealTimeProblem,
    run_trials,
    solve_enforced_waits,
)
from repro.apps.cascade import cascade_pipeline, measure_cascade_gains
from repro.core.calibration import calibrate_enforced_b
from repro.core.feasibility import min_tau0_enforced
from repro.dataflow.graph import DataflowGraph
from repro.queueing.estimate_b import estimate_b


def main() -> None:
    # -- 1. Measure a decision cascade's pass rates ------------------------
    trace = measure_cascade_gains(n_windows=30_000, object_fraction=0.02, seed=5)
    pipeline = cascade_pipeline(trace)
    print(pipeline.describe())
    print()

    # The dataflow-graph API supports general DAGs; the optimizers require
    # a chain, which as_chain() certifies.
    graph = DataflowGraph.from_pipeline(pipeline)
    assert graph.is_chain()
    print(
        "total gain into final stage:",
        round(graph.total_gain_into(pipeline.nodes[-1].name), 4),
    )
    print()

    # -- 2. Calibrate worst-case multipliers empirically (Sec. 6.2) -------
    tau0 = 1.4 * min_tau0_enforced(pipeline)
    deadlines = np.asarray([25_000.0, 60_000.0])
    calibration = calibrate_enforced_b(
        pipeline,
        np.asarray([tau0, 2 * tau0]),
        deadlines,
        n_trials=8,
        n_items=6000,
    )
    print(
        f"calibrated b after {calibration.n_rounds} round(s): "
        f"{calibration.b.tolist()} (passed={calibration.passed})"
    )

    # -- 3. Cross-check with the a-priori queueing estimate (Sec. 7) ------
    deadline = float(deadlines[-1])
    sol = solve_enforced_waits(
        RealTimeProblem(pipeline, tau0, deadline), calibration.b
    )
    # The queueing decomposition needs stable (non-critically-loaded)
    # queues: estimate at a slower arrival rate where the deadline (not
    # the chain/head caps) binds.  At the fast operating point the caps
    # bind and the estimate correctly reports inf (unbounded under the
    # independence approximation).
    tau0_slow = 16.0 * tau0
    sol_slow = solve_enforced_waits(
        RealTimeProblem(pipeline, tau0_slow, deadline), calibration.b
    )
    b_theory = estimate_b(
        pipeline, sol_slow.periods, tau0_slow, epsilon=1e-4, strict=False
    )
    b_fast = estimate_b(
        pipeline, sol.periods, tau0, epsilon=1e-4, strict=False
    )
    print(f"queueing-theory b at tau0={tau0_slow:.1f}: {b_theory.tolist()}")
    print(
        f"queueing-theory b at tau0={tau0:.1f}: {b_fast.tolist()} "
        "(inf = caps bind, queue critically loaded)"
    )
    print()

    # -- 4. Validate the design across seeds ------------------------------
    trials = run_trials(
        EnforcedWaitsSimulator,
        dict(
            pipeline=pipeline,
            waits=sol.waits,
            arrivals=FixedRateArrivals(tau0),
            deadline=deadline,
            n_items=8000,
        ),
        10,
        strict=True,
    )
    print(
        f"design at tau0={tau0:.1f}, D={deadline:.0f}: "
        f"predicted AF={sol.active_fraction:.4f}, "
        f"measured AF={trials.mean_active_fraction:.4f}, "
        f"miss-free trials={trials.miss_free_fraction:.0%}"
    )


if __name__ == "__main__":
    main()
