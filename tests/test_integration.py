"""End-to-end integration tests: the paper's headline claims at small scale.

Each test exercises multiple subsystems together (optimizer + simulator +
application pipelines) and asserts the *shape* of the paper's results —
who wins where, and that the design actually meets deadlines in execution.
"""

import numpy as np
import pytest

from repro.apps.blast.pipeline import blast_pipeline
from repro.arrivals.fixed import FixedRateArrivals
from repro.core.enforced_waits import solve_enforced_waits
from repro.core.model import RealTimeProblem
from repro.core.monolithic import solve_monolithic
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.campaign import run_trials

B = np.asarray([1.0, 3.0, 9.0, 6.0])


class TestHeadlineClaims:
    def test_enforced_wins_fast_arrivals_with_slack(self, blast):
        """Paper Sec 6.3: 'difference is particularly large — at least 0.4
        in absolute terms — in the region of the fastest arrival rates and
        sufficient deadline slack'."""
        prob = RealTimeProblem(blast, 10.0, 3.5e5)
        e = solve_enforced_waits(prob, B)
        m = solve_monolithic(prob)
        assert e.feasible and m.feasible
        assert m.active_fraction - e.active_fraction >= 0.4

    def test_monolithic_wins_slow_arrivals_tight_deadline(self, blast):
        prob = RealTimeProblem(blast, 100.0, 2.4e4)
        e = solve_enforced_waits(prob, B)
        m = solve_monolithic(prob)
        assert m.feasible
        # Enforced either infeasible or much worse here.
        if e.feasible:
            assert e.active_fraction - m.active_fraction >= 0.3

    def test_only_enforced_survives_fastest_feasible_rates(self, blast):
        """Between the two feasibility thresholds (~2.83 vs ~7.87 cycles)
        only enforced waits can run at all."""
        prob = RealTimeProblem(blast, 4.0, 3.5e5)
        assert solve_enforced_waits(prob, B).feasible
        assert not solve_monolithic(prob).feasible

    def test_neither_feasible_below_2e4(self, blast):
        """Paper: 'Values of D below 2e4 cycles resulted in no feasible
        realizations of the pipeline by either approach'. (With the
        calibrated b the enforced bound is ~2.3e4.)"""
        for tau0 in (10.0, 50.0, 100.0):
            prob = RealTimeProblem(blast, tau0, 1.9e4)
            assert not solve_enforced_waits(prob, B).feasible
        # Monolithic needs b*M*tau0 + Tbar <= D with Tbar >= sum(t) for
        # any block: at least 4397 cycles of service + accumulation.
        prob = RealTimeProblem(blast, 100.0, 4.4e3)
        assert not solve_monolithic(prob).feasible


class TestDesignExecutesCorrectly:
    def test_enforced_design_is_miss_free_in_simulation(self, blast):
        """Calibrated design simulates without misses in >= 95% of trials
        (the paper's acceptance criterion), at reduced scale."""
        tau0, deadline = 20.0, 2.0e5
        sol = solve_enforced_waits(
            RealTimeProblem(blast, tau0, deadline), B
        )
        trials = run_trials(
            EnforcedWaitsSimulator,
            dict(
                pipeline=blast,
                waits=sol.waits,
                arrivals=FixedRateArrivals(tau0),
                deadline=deadline,
                n_items=8000,
            ),
            8,
            strict=True,
        )
        assert trials.miss_free_fraction >= 0.95
        # "active fractions measured closely matched those predicted".
        assert trials.mean_active_fraction == pytest.approx(
            sol.active_fraction, rel=0.05
        )

    def test_monolithic_design_is_miss_free(self, blast):
        tau0, deadline = 30.0, 2.0e5
        sol = solve_monolithic(RealTimeProblem(blast, tau0, deadline))
        trials = run_trials(
            MonolithicSimulator,
            dict(
                pipeline=blast,
                block_size=sol.block_size,
                arrivals=FixedRateArrivals(tau0),
                deadline=deadline,
                n_items=6 * sol.block_size,
            ),
            8,
            strict=True,
        )
        assert trials.miss_free_fraction >= 0.95

    def test_observed_queue_depths_within_assumed_b(self, blast):
        tau0, deadline = 20.0, 2.0e5
        sol = solve_enforced_waits(
            RealTimeProblem(blast, tau0, deadline), B
        )
        trials = run_trials(
            EnforcedWaitsSimulator,
            dict(
                pipeline=blast,
                waits=sol.waits,
                arrivals=FixedRateArrivals(tau0),
                deadline=deadline,
                n_items=8000,
            ),
            5,
            strict=True,
        )
        assert (trials.observed_b() <= B).all()


class TestOtherApplications:
    """The motivating apps plug into the same optimization machinery."""

    @pytest.mark.parametrize("app", ["gamma", "nids", "cascade"])
    def test_full_workflow(self, app):
        from repro.core.feasibility import min_tau0_enforced

        if app == "gamma":
            from repro.apps.gamma import gamma_pipeline

            pipeline = gamma_pipeline(seed=1)
        elif app == "nids":
            from repro.apps.nids import nids_pipeline

            pipeline = nids_pipeline(seed=1)
        else:
            from repro.apps.cascade import cascade_pipeline

            pipeline = cascade_pipeline(seed=1)

        tau0 = 1.5 * min_tau0_enforced(pipeline)
        deadline = 60.0 * float(pipeline.service_times.sum())
        prob = RealTimeProblem(pipeline, tau0, deadline)
        sol = solve_enforced_waits(prob, np.full(pipeline.n_nodes, 4.0))
        assert sol.feasible
        metrics = EnforcedWaitsSimulator(
            pipeline,
            sol.waits,
            FixedRateArrivals(tau0),
            deadline,
            3000,
            seed=0,
        ).run()
        assert metrics.active_fraction == pytest.approx(
            sol.active_fraction, rel=0.1
        )
        assert metrics.miss_rate < 0.05
