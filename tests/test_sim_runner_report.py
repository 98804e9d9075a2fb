"""Tests for the multi-seed runner and report rendering."""

import math

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.des.monitors import Accumulator
from repro.errors import CampaignError, SpecError
from repro.sim.campaign import run_trials
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.faults import FaultPlan
from repro.sim.report import summarize_metrics, summarize_trials
from repro.sim.runner import TrialOutcome


def _kwargs(pipeline) -> dict:
    return dict(
        pipeline=pipeline,
        waits=np.zeros(pipeline.n_nodes),
        arrivals=FixedRateArrivals(10.0),
        deadline=1e6,
        n_items=200,
    )


def _trials(pipeline, seeds, **campaign):
    return run_trials(EnforcedWaitsSimulator, _kwargs(pipeline), seeds, **campaign)


class Confused:
    def __init__(self, seed):
        pass

    def run(self):
        return [1, 2, 3]


class Broken:
    def __init__(self, seed):
        pass

    def run(self):
        raise ValueError("kaput")


class TestRunTrials:
    def test_int_seeds_expand_to_range(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 3)
        assert trials.seeds == (0, 1, 2)
        assert trials.n_trials == 3

    def test_explicit_seeds(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, [5, 9])
        assert trials.seeds == (5, 9)

    def test_statistics(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 4)
        assert 0.0 <= trials.miss_free_fraction <= 1.0
        assert trials.mean_active_fraction > 0
        assert trials.std_active_fraction >= 0
        assert trials.max_miss_rate >= trials.mean_miss_rate or (
            trials.max_miss_rate == trials.mean_miss_rate
        )

    def test_observed_b_at_least_one(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 3)
        assert (trials.observed_b() >= 1.0).all()

    def test_empty_seeds_rejected(self, tiny_pipeline):
        with pytest.raises(SpecError):
            _trials(tiny_pipeline, [])
        with pytest.raises(SpecError):
            _trials(tiny_pipeline, 0)

    def test_std_active_fraction_matches_accumulator(self, tiny_pipeline):
        """Regression: the campaign std must use the same ddof=1 convention
        as Accumulator.variance (it used to mix population and sample std)."""
        trials = _trials(tiny_pipeline, 6)
        acc = Accumulator("af")
        for m in trials.metrics:
            acc.add(m.active_fraction)
        assert trials.std_active_fraction == pytest.approx(acc.std, rel=1e-12)
        assert trials.std_active_fraction == pytest.approx(
            float(np.std([m.active_fraction for m in trials.metrics], ddof=1)),
            rel=1e-12,
        )

    def test_std_active_fraction_nan_below_two_samples(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 1)
        assert math.isnan(trials.std_active_fraction)

    def test_wrong_metrics_type_error_names_types(self):
        with pytest.raises(CampaignError, match=r"Confused.*list.*not SimMetrics"):
            run_trials(Confused, {}, 2, strict=True)

    def test_failure_propagates_by_default(self):
        # Strict campaigns name every lost seed with its status and quote
        # the first failure's traceback, exception text included.
        with pytest.raises(CampaignError) as exc_info:
            run_trials(Broken, {}, 2, strict=True)
        msg = str(exc_info.value)
        assert "seed 0: failed, seed 1: failed" in msg
        assert "ValueError: kaput" in msg
        assert "Traceback" in msg

    def test_failed_trial_recorded_as_outcome(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 3, faults=FaultPlan(crash_seeds=(1,)))
        assert [o.status for o in trials.outcomes] == ["ok", "failed", "ok"]
        assert trials.n_trials == 2
        assert "InjectedFault" in trials.outcomes[1].error
        assert not trials.all_ok

    def test_serial_retries_recover_transient_failure(self, tiny_pipeline):
        trials = _trials(
            tiny_pipeline,
            2,
            retries=2,
            backoff=0.0,
            faults=FaultPlan(transient_crashes={1: 2}),
        )
        assert trials.all_ok
        assert [o.attempts for o in trials.outcomes] == [1, 3]


class TestTrialOutcome:
    def test_invalid_status_rejected(self):
        with pytest.raises(SpecError):
            TrialOutcome(seed=0, status="exploded")

    def test_ok_requires_metrics(self):
        with pytest.raises(SpecError):
            TrialOutcome(seed=0, status="ok")

    def test_failed_forbids_metrics(self, tiny_pipeline):
        m = EnforcedWaitsSimulator(**_kwargs(tiny_pipeline), seed=0).run()
        with pytest.raises(SpecError):
            TrialOutcome(seed=0, status="failed", metrics=m)


class TestReports:
    def test_summarize_metrics(self, tiny_pipeline):
        m = EnforcedWaitsSimulator(**_kwargs(tiny_pipeline), seed=0).run()
        text = summarize_metrics(m)
        assert "active fraction" in text
        assert "enforced" in text

    def test_summarize_trials(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 2)
        text = summarize_trials(trials, label="unit test")
        assert "unit test" in text
        assert "miss-free fraction" in text
        assert "incomplete trials" not in text

    def test_summarize_trials_names_failures(self, tiny_pipeline):
        trials = _trials(tiny_pipeline, 3, faults=FaultPlan(crash_seeds=(1,)))
        text = summarize_trials(trials)
        assert "failed trials" in text
        assert "incomplete trials" in text
        assert "seed 1: failed after 1 attempt(s)" in text
