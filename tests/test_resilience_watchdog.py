"""Tests for the deadline watchdog (repro.resilience.watchdog).

All tests drive observe_exit directly with a controlled clock; most use
``alpha=1.0`` so the smoothed slack equals the last observation and the
threshold crossings are exact.
"""

from __future__ import annotations

import math

import pytest

from repro.errors import SpecError
from repro.resilience import DeadlineWatchdog


def _watchdog(**kwargs) -> DeadlineWatchdog:
    defaults = dict(
        enter_slack_frac=0.25,
        exit_slack_frac=0.5,
        sustain_time=0.0,
        drain_backlog=0,
        alpha=1.0,
    )
    defaults.update(kwargs)
    return DeadlineWatchdog(10.0, **defaults)


class TestValidation:
    def test_rejects_nonpositive_deadline(self):
        with pytest.raises(SpecError, match="deadline"):
            DeadlineWatchdog(0.0)

    def test_rejects_inverted_hysteresis_band(self):
        with pytest.raises(SpecError, match="hysteresis"):
            DeadlineWatchdog(10.0, enter_slack_frac=0.5, exit_slack_frac=0.5)
        with pytest.raises(SpecError, match="hysteresis"):
            DeadlineWatchdog(10.0, enter_slack_frac=0.6, exit_slack_frac=0.3)

    def test_rejects_fraction_out_of_range(self):
        with pytest.raises(SpecError, match="hysteresis"):
            DeadlineWatchdog(10.0, enter_slack_frac=-0.1)
        with pytest.raises(SpecError, match="hysteresis"):
            DeadlineWatchdog(10.0, exit_slack_frac=1.5)

    def test_rejects_negative_sustain(self):
        with pytest.raises(SpecError, match="sustain"):
            DeadlineWatchdog(10.0, sustain_time=-1.0)

    def test_rejects_negative_drain_backlog(self):
        with pytest.raises(SpecError, match="drain_backlog"):
            DeadlineWatchdog(10.0, drain_backlog=-1)


class TestNominalState:
    def test_starts_nominal(self):
        wd = _watchdog()
        assert not wd.degraded
        assert wd.wait_scale == 1.0
        assert math.isnan(wd.smoothed_slack)
        assert wd.intervals == ()
        assert wd.degradations == 0
        assert wd.degraded_time(100.0) == 0.0

    def test_healthy_slack_keeps_waits(self):
        wd = _watchdog()
        for t in range(10):
            wd.observe_exit(float(t), slack=8.0, backlog=50)
        assert not wd.degraded
        assert wd.wait_scale == 1.0


class TestEnterAndExit:
    def test_enters_on_eroded_slack(self):
        wd = _watchdog()  # enter threshold = 2.5
        wd.observe_exit(5.0, slack=1.0, backlog=40)
        assert wd.degraded
        assert wd.wait_scale == 0.0
        assert wd.degradations == 1  # open interval counts

    def test_hysteresis_band_does_not_exit(self):
        """Slack between enter (2.5) and exit (5.0) thresholds stays degraded."""
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=40)
        wd.observe_exit(6.0, slack=4.0, backlog=0)
        assert wd.degraded

    def test_exit_requires_backlog_drained(self):
        wd = _watchdog(drain_backlog=2)
        wd.observe_exit(5.0, slack=1.0, backlog=40)
        wd.observe_exit(6.0, slack=9.0, backlog=3)  # slack fine, backlog not
        assert wd.degraded
        wd.observe_exit(7.0, slack=9.0, backlog=2)
        assert not wd.degraded
        assert wd.intervals == ((5.0, 7.0),)
        assert wd.wait_scale == 1.0

    def test_reentry_records_second_interval(self):
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(8.0, slack=9.0, backlog=0)
        wd.observe_exit(20.0, slack=0.5, backlog=10)
        wd.observe_exit(25.0, slack=9.0, backlog=0)
        assert wd.intervals == ((5.0, 8.0), (20.0, 25.0))
        assert wd.degradations == 2
        assert wd.degraded_time(30.0) == pytest.approx(8.0)


class TestSustain:
    def test_single_late_item_does_not_degrade(self):
        wd = _watchdog(sustain_time=2.0)
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        assert not wd.degraded  # erosion just started

    def test_sustained_erosion_degrades(self):
        wd = _watchdog(sustain_time=2.0)
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(6.0, slack=1.0, backlog=10)
        assert not wd.degraded
        wd.observe_exit(7.0, slack=1.0, backlog=10)  # 2.0 elapsed
        assert wd.degraded

    def test_recovery_resets_the_sustain_clock(self):
        wd = _watchdog(sustain_time=2.0)
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(6.0, slack=8.0, backlog=10)  # recovered: reset
        wd.observe_exit(7.0, slack=1.0, backlog=10)  # erosion restarts
        wd.observe_exit(8.0, slack=1.0, backlog=10)
        assert not wd.degraded  # only 1.0 sustained since the restart
        wd.observe_exit(9.0, slack=1.0, backlog=10)
        assert wd.degraded


class TestSmoothing:
    def test_ewma_dampens_a_single_outlier(self):
        """With alpha=0.2 one terrible slack sample cannot trigger."""
        wd = _watchdog(alpha=0.2)
        for t in range(5):
            wd.observe_exit(float(t), slack=8.0, backlog=10)
        wd.observe_exit(5.0, slack=-20.0, backlog=10)
        # smoothed = 0.8*8 + 0.2*(-20) = 2.4 < 2.5: barely crosses, but
        # the point is the outlier was damped from -20 to 2.4.
        assert wd.smoothed_slack == pytest.approx(0.8 * 8.0 + 0.2 * -20.0)

    def test_first_sample_seeds_exactly(self):
        wd = _watchdog(alpha=0.2)
        wd.observe_exit(0.0, slack=4.0, backlog=10)
        assert wd.smoothed_slack == 4.0


class TestFinalize:
    def test_closes_open_interval_at_makespan(self):
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        intervals = wd.finalize(42.0)
        assert intervals == ((5.0, 42.0),)
        assert not wd.degraded
        assert wd.degradations == 1

    def test_idempotent(self):
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        first = wd.finalize(42.0)
        assert wd.finalize(99.0) == first

    def test_noop_when_never_degraded(self):
        wd = _watchdog()
        wd.observe_exit(5.0, slack=9.0, backlog=10)
        assert wd.finalize(42.0) == ()

    def test_degraded_time_includes_open_interval(self):
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        assert wd.degraded_time(9.0) == pytest.approx(4.0)


class TestRestoreHysteresis:
    """Restore is driven by its own EWMA (restore_alpha, restore_time)."""

    def test_rejects_negative_restore_time(self):
        with pytest.raises(SpecError, match="restore_time"):
            DeadlineWatchdog(10.0, restore_time=-0.5)

    def test_default_restore_alpha_matches_legacy_behavior(self):
        """restore_alpha=None reuses alpha: first qualifying exit restores."""
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(6.0, slack=9.0, backlog=0)
        assert not wd.degraded

    def test_slow_restore_ewma_resists_one_lucky_exit(self):
        """With restore_alpha=0.1 one optimistic exit cannot restore.

        Entry uses the fast EWMA (alpha=1.0 here, so last-sample); the
        restore EWMA has already absorbed the eroded samples and a single
        slack=9 exit only moves it to 0.1*9 + 0.9*1 = 1.8 < 5.0.
        """
        wd = _watchdog(restore_alpha=0.1)
        wd.observe_exit(4.0, slack=1.0, backlog=10)  # seeds both EWMAs
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        assert wd.degraded
        wd.observe_exit(6.0, slack=9.0, backlog=0)
        assert wd.degraded  # restore EWMA still inside the band
        assert wd.smoothed_restore_slack == pytest.approx(0.1 * 9.0 + 0.9 * 1.0)
        for t in range(7, 40):
            wd.observe_exit(float(t), slack=9.0, backlog=0)
            if not wd.degraded:
                break
        assert not wd.degraded  # sustained recovery eventually restores

    def test_restore_time_requires_sustained_recovery(self):
        wd = _watchdog(restore_time=2.0)
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(6.0, slack=9.0, backlog=0)  # recovery clock starts
        assert wd.degraded
        wd.observe_exit(7.0, slack=9.0, backlog=0)  # 1.0 sustained
        assert wd.degraded
        wd.observe_exit(8.0, slack=9.0, backlog=0)  # 2.0 sustained
        assert not wd.degraded
        assert wd.intervals == ((5.0, 8.0),)

    def test_relapse_resets_the_recovery_clock(self):
        wd = _watchdog(restore_time=2.0)
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(6.0, slack=9.0, backlog=0)   # recovery starts
        wd.observe_exit(7.0, slack=1.0, backlog=10)  # relapse: reset
        wd.observe_exit(8.0, slack=9.0, backlog=0)   # recovery restarts
        wd.observe_exit(9.0, slack=9.0, backlog=0)
        assert wd.degraded  # only 1.0 sustained since the restart
        wd.observe_exit(10.0, slack=9.0, backlog=0)
        assert not wd.degraded
        assert wd.intervals == ((5.0, 10.0),)

    def test_backlog_spike_resets_the_recovery_clock(self):
        wd = _watchdog(restore_time=2.0, drain_backlog=2)
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        wd.observe_exit(6.0, slack=9.0, backlog=0)   # recovery starts
        wd.observe_exit(7.0, slack=9.0, backlog=5)   # backlog spike: reset
        wd.observe_exit(8.0, slack=9.0, backlog=1)
        wd.observe_exit(9.0, slack=9.0, backlog=1)
        assert wd.degraded
        wd.observe_exit(10.0, slack=9.0, backlog=0)
        assert not wd.degraded

    def test_smoothed_restore_slack_starts_nan(self):
        wd = _watchdog(restore_alpha=0.1)
        assert math.isnan(wd.smoothed_restore_slack)


class TestRepr:
    def test_shows_state(self):
        wd = _watchdog()
        wd.observe_exit(5.0, slack=1.0, backlog=10)
        assert "degraded" in repr(wd)
        wd.observe_exit(6.0, slack=9.0, backlog=0)
        assert "nominal" in repr(wd)


class TestSimulatorsWithWatchdog:
    """The R1 overload recipe with a watchdog attached runs to the end.

    On the synthetic app's v=8 model some tail firings consume items
    whose gains all draw zero; the watchdog must skip those empty exits
    rather than take a minimum over no outputs.
    """

    N_ITEMS = 1000

    @pytest.fixture(scope="class")
    def recipe(self):
        from repro.arrivals.fixed import FixedRateArrivals
        from repro.planning.cache import PlanCache
        from repro.runtime.kernels import build_workload, plan_runtime
        from repro.sim.enforced import EnforcedWaitsSimulator

        workload = build_workload("synthetic", seed=0)
        for kernel in workload.kernels:
            kernel.nominal_service = 0.001
        plan = plan_runtime(workload, vector_width=8, utilization=0.7,
                            cache=PlanCache(), seed=0)
        tau0 = plan.problem.tau0
        baseline = EnforcedWaitsSimulator(
            plan.pipeline, plan.waits, FixedRateArrivals(tau0),
            plan.problem.deadline, self.N_ITEMS,
        )
        baseline.run()
        hwm = max(q.max_depth for q in baseline.queues)
        return plan, max(8, math.ceil(1.25 * hwm))

    @pytest.mark.parametrize("simulator", ["enforced", "adaptive"])
    @pytest.mark.parametrize(
        "policy", ["drop-newest", "drop-oldest", "deadline-aware"]
    )
    def test_r1_burst_runs_to_completion(self, recipe, simulator, policy):
        from repro.arrivals.fixed import FixedRateArrivals
        from repro.resilience import ArrivalBurst, RuntimeFaultPlan
        from repro.sim.adaptive import AdaptiveWaitsSimulator
        from repro.sim.enforced import EnforcedWaitsSimulator

        plan, capacity = recipe
        tau0, deadline = plan.problem.tau0, plan.problem.deadline
        span = self.N_ITEMS * tau0
        cls = {"enforced": EnforcedWaitsSimulator,
               "adaptive": AdaptiveWaitsSimulator}[simulator]
        sim = cls(
            plan.pipeline, plan.waits, FixedRateArrivals(tau0), deadline,
            self.N_ITEMS,
            runtime_faults=RuntimeFaultPlan(
                bursts=(ArrivalBurst(0.25 * span, 0.55 * span, 3.0),)
            ),
            queue_capacity=capacity,
            shed_policy=policy,
            watchdog=DeadlineWatchdog(deadline, sustain_time=0.05 * deadline),
        )
        metrics = sim.run()
        # Watchdog runs stay on the event loop.
        assert sim.engine.events_processed > 0
        res = metrics.extra["resilience"]
        assert res["shed_total"] > 0
        assert res["shed_total"] == sum(q.total_shed for q in sim.queues)
        for q in sim.queues:
            assert len(q) == 0
            assert q.total_pushed == q.total_popped + q.total_shed
