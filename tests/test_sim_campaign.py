"""Tests for the campaign runner, serial and over shard workers."""

import os
import time

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.poisson import PoissonArrivals
from repro.errors import CampaignError, SpecError
from repro.sim.campaign import _run_jobs, run_trials
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.faults import FaultPlan, InjectedFault
from repro.sim.metrics import SimMetrics
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.runner import normalize_seeds
from tests.test_sim_differential_fuzz import assert_metrics_bit_identical


def _dummy_metrics(seed: int) -> SimMetrics:
    return SimMetrics(
        strategy="dummy",
        n_items=1,
        makespan=1.0,
        active_time_per_node=np.ones(1),
        active_fraction=0.5 + seed * 0.01,
        missed_items=0,
        miss_rate=0.0,
        outputs=1,
        mean_latency=1.0,
        max_latency=1.0,
        queue_hwm_vectors=np.ones(1),
        firings=np.ones(1),
        empty_firings=np.zeros(1),
        mean_occupancy=np.ones(1),
    )


class FastSim:
    """A trivial picklable simulator that finishes instantly."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> SimMetrics:
        return _dummy_metrics(self.seed)


class CrashingSim:
    """Raises inside run() — the classic crashing trial."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> SimMetrics:
        raise RuntimeError(f"boom from seed {self.seed}")


class DyingSim:
    """Kills its worker process outright (no exception to catch)."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> SimMetrics:
        os._exit(17)


class NotMetricsSim:
    """run() returns the wrong type."""

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    def run(self) -> dict:
        return {"not": "metrics"}


class DiesOnceSim:
    """Kills its worker the first time each seed runs, then succeeds.

    A marker file per seed under ``marker_dir`` records the first run;
    it is created before the process dies.
    """

    def __init__(self, *, marker_dir: str, seed: int = 0) -> None:
        self.marker = os.path.join(marker_dir, f"seed-{seed}")
        self.seed = seed

    def run(self) -> SimMetrics:
        if not os.path.exists(self.marker):
            open(self.marker, "w").close()
            os._exit(17)
        return _dummy_metrics(self.seed)


def _count_process_starts(monkeypatch) -> list:
    """Record every worker process started from now on."""
    import multiprocessing

    starts = []
    start = multiprocessing.Process.start

    def counting_start(proc):
        starts.append(proc)
        return start(proc)

    monkeypatch.setattr(multiprocessing.Process, "start", counting_start)
    return starts


@pytest.fixture(scope="module")
def enforced_kwargs():
    from repro.apps.blast.pipeline import blast_pipeline
    from repro.core.enforced_waits import solve_enforced_waits
    from repro.core.model import RealTimeProblem

    blast = blast_pipeline()
    sol = solve_enforced_waits(
        RealTimeProblem(blast, 20.0, 2e5), np.asarray([1.0, 3.0, 9.0, 6.0])
    )
    return dict(
        pipeline=blast,
        waits=sol.waits,
        arrivals=FixedRateArrivals(20.0),
        deadline=2e5,
        n_items=2000,
    )


class TestSerialEquivalence:
    def test_matches_serial_runner(self, enforced_kwargs):
        direct = [
            EnforcedWaitsSimulator(**enforced_kwargs, seed=seed).run()
            for seed in range(4)
        ]
        trials = run_trials(EnforcedWaitsSimulator, enforced_kwargs, 4)
        assert trials.seeds == (0, 1, 2, 3)
        for a, b in zip(direct, trials.metrics):
            assert_metrics_bit_identical(a, b)

    def test_workers_give_identical_results(self, enforced_kwargs):
        one = run_trials(EnforcedWaitsSimulator, enforced_kwargs, 4)
        many = run_trials(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=2
        )
        assert [m.outputs for m in one.metrics] == [
            m.outputs for m in many.metrics
        ]
        assert [m.mean_latency for m in one.metrics] == [
            m.mean_latency for m in many.metrics
        ]

    def test_random_arrivals_match_serial_seed_for_seed(self, enforced_kwargs):
        # Workers draw each seed's Poisson arrivals themselves, from the
        # seed's own stream, so sharding cannot change a trial.
        kwargs = dict(enforced_kwargs, arrivals=PoissonArrivals(20.0))
        serial = run_trials(EnforcedWaitsSimulator, kwargs, 6)
        sharded = run_trials(EnforcedWaitsSimulator, kwargs, 6, workers=2)
        assert serial.all_ok and sharded.all_ok
        assert [o.seed for o in sharded.outcomes] == list(range(6))
        for a, b in zip(serial.metrics, sharded.metrics):
            assert_metrics_bit_identical(a, b)

    def test_monolithic_class_supported(self, enforced_kwargs):
        kwargs = dict(
            pipeline=enforced_kwargs["pipeline"],
            block_size=1000,
            arrivals=FixedRateArrivals(20.0),
            deadline=2e5,
            n_items=4000,
        )
        trials = run_trials(MonolithicSimulator, kwargs, [3, 7], workers=2)
        assert trials.seeds == (3, 7)
        assert trials.n_trials == 2


class TestCalibrationIntegration:
    def test_workers_do_not_change_calibration(self):
        from repro.apps.blast.pipeline import blast_pipeline
        from repro.core.calibration import calibrate_enforced_b

        p = blast_pipeline()
        kwargs = dict(n_trials=4, n_items=4000)
        serial = calibrate_enforced_b(
            p, np.asarray([5.0]), np.asarray([4e4]), **kwargs
        )
        parallel = calibrate_enforced_b(
            p, np.asarray([5.0]), np.asarray([4e4]), workers=2, **kwargs
        )
        assert (serial.b == parallel.b).all()
        assert serial.n_rounds == parallel.n_rounds

    def test_multi_round_grid_matches_serial_round_for_round(self):
        serial = _calibrate(GRID_TAU0S, GRID_DEADLINES)
        parallel = _calibrate(GRID_TAU0S, GRID_DEADLINES, workers=2)
        # The grid exercises what the raise loop reads: several rounds,
        # a point that is infeasible (D = 1e3), several failing points.
        assert serial.n_rounds >= 2
        n_points = len(GRID_TAU0S) * len(GRID_DEADLINES)
        assert all(r.feasible_points < n_points for r in serial.rounds)
        assert max(len(r.failing_points) for r in serial.rounds) >= 2
        assert (serial.b == parallel.b).all()
        assert serial.passed == parallel.passed
        assert len(serial.rounds) == len(parallel.rounds)
        for s, p in zip(serial.rounds, parallel.rounds):
            assert np.array_equal(s.b, p.b)
            assert s.worst_miss_free == p.worst_miss_free
            assert s.worst_miss_rate == p.worst_miss_rate
            assert s.failing_points == p.failing_points
            assert s.feasible_points == p.feasible_points

    def test_worker_starts_per_campaign_bounded_by_rounds_times_workers(
        self, monkeypatch
    ):
        starts = _count_process_starts(monkeypatch)
        result = _calibrate(GRID_TAU0S, GRID_DEADLINES, workers=2)
        assert 0 < len(starts) <= result.n_rounds * 2


GRID_TAU0S = (3.0, 5.0)
GRID_DEADLINES = (1e3, 1.5e4, 2e4, 3e4)


def _calibrate(tau0s, deadlines, **kwargs):
    from repro.apps.blast.pipeline import blast_pipeline
    from repro.core.calibration import calibrate_enforced_b

    return calibrate_enforced_b(
        blast_pipeline(),
        np.asarray(tau0s),
        np.asarray(deadlines),
        n_trials=3,
        n_items=3000,
        **kwargs,
    )


class SeedFaultSim(EnforcedWaitsSimulator):
    """Raises (``fail_seeds``), kills its process (``exit_seeds``) or
    sleeps first (arrival periods in ``slow_tau0s``)."""

    fail_seeds: frozenset = frozenset()
    exit_seeds: frozenset = frozenset()
    slow_tau0s: frozenset = frozenset()

    def __init__(self, *args, seed: int = 0, **kwargs) -> None:
        super().__init__(*args, seed=seed, **kwargs)
        self.fault_seed = seed
        self.fault_tau0 = kwargs["arrivals"].tau0

    def run(self) -> SimMetrics:
        if self.fault_tau0 in self.slow_tau0s:
            time.sleep(0.03)
        if self.fault_seed in self.exit_seeds:
            os._exit(17)
        if self.fault_seed in self.fail_seeds:
            raise RuntimeError(f"injected failure for seed {self.fault_seed}")
        return super().run()


class TestCalibrationPatchedSimulator:
    """Calibration over a patched simulator: slow rows and failed trials.

    Worker processes are forked, so they inherit the patch.
    """

    @pytest.fixture
    def faulty(self, monkeypatch):
        import repro.core.calibration as calibration

        monkeypatch.setattr(calibration, "EnforcedWaitsSimulator", SeedFaultSim)
        return monkeypatch

    def test_failing_points_stay_in_grid_order(self, faulty):
        # The first shard holds the tau0=3 row; slowing it makes the
        # second shard's failing points arrive first.
        faulty.setattr(SeedFaultSim, "slow_tau0s", frozenset({3.0}))
        serial = _calibrate(GRID_TAU0S, GRID_DEADLINES)
        parallel = _calibrate(GRID_TAU0S, GRID_DEADLINES, workers=2)
        first = serial.rounds[0].failing_points
        assert {t for t, _ in first} == {3.0, 5.0}
        assert first == sorted(first)
        assert [r.failing_points for r in parallel.rounds] == [
            r.failing_points for r in serial.rounds
        ]

    @pytest.mark.parametrize("workers", [None, 2])
    def test_some_failed_trials_raise(self, faulty, workers):
        from repro.errors import CalibrationError

        faulty.setattr(SeedFaultSim, "fail_seeds", frozenset({1}))
        with pytest.raises(CalibrationError) as exc_info:
            _calibrate((5.0,), (2e4, 3e4), workers=workers)
        msg = str(exc_info.value)
        assert "tau0=5" in msg and "seed=1) failed" in msg
        assert "injected failure for seed 1" in msg

    @pytest.mark.parametrize("workers", [None, 2])
    def test_every_trial_failed_raises_calibration_error(self, faulty, workers):
        from repro.errors import CalibrationError

        faulty.setattr(SeedFaultSim, "fail_seeds", frozenset({0, 1, 2}))
        with pytest.raises(CalibrationError, match="3 of 3 trials"):
            _calibrate((5.0,), (2e4, 3e4), workers=workers)

    def test_plan_runtime_does_not_retry_past_a_failed_trial(self, faulty):
        from repro.errors import CalibrationError
        from repro.runtime.kernels import build_workload, plan_runtime

        faulty.setattr(SeedFaultSim, "fail_seeds", frozenset({0}))
        with pytest.raises(CalibrationError, match="injected failure"):
            plan_runtime(
                build_workload("synthetic", seed=0), vector_width=8, seed=0
            )

    def test_dead_worker_raises_instead_of_hanging(self, faulty):
        from repro.errors import CalibrationError

        faulty.setattr(SeedFaultSim, "exit_seeds", frozenset({2}))
        with pytest.raises(CalibrationError, match="died without a result"):
            _calibrate((5.0,), (2e4, 3e4), workers=2)


class TestValidation:
    def test_seed_in_kwargs_rejected(self, enforced_kwargs):
        bad = dict(enforced_kwargs, seed=1)
        with pytest.raises(SpecError):
            run_trials(EnforcedWaitsSimulator, bad, 2)

    def test_empty_seeds_rejected(self, enforced_kwargs):
        with pytest.raises(SpecError):
            run_trials(EnforcedWaitsSimulator, enforced_kwargs, 0)
        with pytest.raises(SpecError):
            run_trials(
                EnforcedWaitsSimulator, enforced_kwargs, []
            )

    def test_negative_workers_rejected(self, enforced_kwargs):
        with pytest.raises(SpecError):
            run_trials(
                EnforcedWaitsSimulator, enforced_kwargs, 2, workers=-1
            )

    def test_non_picklable_kwarg_gives_clear_error(self):
        with pytest.raises(SpecError, match="picklable"):
            run_trials(
                FastSim, {"callback": lambda x: x}, 2, workers=2
            )

    @pytest.mark.parametrize(
        "seeds, expected",
        [
            (3, (0, 1, 2)),
            (np.int64(3), (0, 1, 2)),
            ([np.int32(4), 2], (4, 2)),
            (np.arange(2), (0, 1)),
            (True, SpecError),
            ([1, False], SpecError),
            ([1.9, 2], SpecError),
            (2.0, SpecError),
            (["1"], SpecError),
            ([0, -1], SpecError),
        ],
    )
    def test_seed_values_validated(self, seeds, expected):
        if expected is SpecError:
            with pytest.raises(SpecError, match="integers"):
                normalize_seeds(seeds)
        else:
            assert normalize_seeds(seeds) == expected
            assert all(type(s) is int for s in normalize_seeds(seeds))

    def test_wrong_metrics_type_names_both_classes(self):
        trials = run_trials(NotMetricsSim, {}, [0], workers=2)
        (outcome,) = trials.outcomes
        assert outcome.status == "failed"
        assert "NotMetricsSim" in outcome.error
        assert "dict" in outcome.error


class TestFailurePaths:
    def test_crashing_simulator_captured(self):
        trials = run_trials(CrashingSim, {}, [0, 1], workers=2)
        assert trials.n_attempted == 2
        assert trials.n_failed == 2
        assert trials.n_trials == 0
        for seed, outcome in zip((0, 1), trials.outcomes):
            assert outcome.seed == seed
            assert outcome.status == "failed"
            assert outcome.metrics is None
            assert "RuntimeError" in outcome.error
            assert f"boom from seed {seed}" in outcome.error

    def test_worker_death_detected(self):
        trials = run_trials(DyingSim, {}, [0], workers=2)
        (outcome,) = trials.outcomes
        assert outcome.status == "failed"
        assert "died without a result" in outcome.error
        assert "17" in outcome.error

    @pytest.mark.slow
    def test_hanging_trial_times_out(self):
        faults = FaultPlan(hang_seeds=(1,), hang_seconds=60.0)
        trials = run_trials(
            FastSim, {}, [0, 1, 2], workers=2, timeout=1.0, faults=faults
        )
        assert [o.status for o in trials.outcomes] == [
            "ok",
            "timed-out",
            "ok",
        ]
        assert trials.n_timed_out == 1
        timed_out = trials.outcomes[1]
        assert timed_out.metrics is None
        assert "timeout" in timed_out.error
        assert timed_out.duration >= 1.0

    def test_serial_path_captures_injected_crash(self):
        faults = FaultPlan(crash_seeds=(1,))
        trials = run_trials(
            FastSim, {}, [0, 1, 2], workers=1, faults=faults
        )
        assert [o.status for o in trials.outcomes] == ["ok", "failed", "ok"]
        assert "InjectedFault" in trials.outcomes[1].error

    def test_transient_crash_recovers_with_retries(self):
        faults = FaultPlan(transient_crashes={2: 2})
        trials = run_trials(
            FastSim,
            {},
            [0, 1, 2, 3],
            workers=2,
            retries=2,
            backoff=0.0,
            faults=faults,
        )
        assert trials.all_ok
        assert trials.outcomes[2].attempts == 3
        assert all(o.attempts == 1 for i, o in enumerate(trials.outcomes) if i != 2)

    def test_retries_exhausted_records_failure(self):
        faults = FaultPlan(transient_crashes={0: 5})
        trials = run_trials(
            FastSim, {}, [0], workers=2, retries=1, backoff=0.0, faults=faults
        )
        (outcome,) = trials.outcomes
        assert outcome.status == "failed"
        assert outcome.attempts == 2

    def test_strict_mode_raises_with_partial_results(self):
        faults = FaultPlan(crash_seeds=(1,))
        with pytest.raises(CampaignError) as excinfo:
            run_trials(
                FastSim, {}, [0, 1, 2], workers=2, faults=faults, strict=True
            )
        result = excinfo.value.result
        assert result.n_trials == 2
        assert result.n_failed == 1
        assert "seed 1: failed" in str(excinfo.value)
        assert "InjectedFault" in str(excinfo.value)

    def test_hang_mid_shard_is_reaped_and_shard_restarts(self):
        # Shards [0, 1, 2] and [3, 4, 5]: seed 1 hangs between two trials
        # of its shard; seed 2 runs in a restarted shard.
        faults = FaultPlan(hang_seeds=(1,), hang_seconds=60.0)
        trials = run_trials(
            FastSim, {}, 6, workers=2, timeout=0.5, faults=faults
        )
        assert [o.seed for o in trials.outcomes] == list(range(6))
        assert [o.status for o in trials.outcomes] == [
            "ok", "timed-out", "ok", "ok", "ok", "ok"
        ]
        assert trials.outcomes[1].duration >= 0.5
        assert "timeout" in trials.outcomes[1].error

    def test_dead_worker_trial_recovers_with_a_retry(self, tmp_path):
        trials = run_trials(
            DiesOnceSim,
            {"marker_dir": str(tmp_path)},
            [0, 1, 2],
            workers=2,
            retries=1,
            backoff=0.0,
        )
        assert trials.all_ok
        assert [o.attempts for o in trials.outcomes] == [2, 2, 2]

    def test_no_failures_start_exactly_workers_processes(self, monkeypatch):
        starts = _count_process_starts(monkeypatch)
        trials = run_trials(FastSim, {}, 7, workers=2)
        assert trials.all_ok
        assert len(starts) == 2

    @pytest.mark.slow
    def test_acceptance_20_seed_campaign_with_injected_faults(self):
        """ISSUE acceptance: 20 seeds, 3 crashes + 1 hang -> 16 ok, in order."""
        faults = FaultPlan(
            crash_seeds=(2, 7, 11), hang_seeds=(15,), hang_seconds=60.0
        )
        trials = run_trials(
            FastSim, {}, 20, workers=4, timeout=1.5, faults=faults
        )
        assert trials.seeds == tuple(range(20))
        assert trials.n_attempted == 20
        assert trials.n_trials == 16
        assert trials.n_failed == 3
        assert trials.n_timed_out == 1
        assert [o.seed for o in trials.outcomes] == list(range(20))
        for o in trials.outcomes:
            if o.seed in (2, 7, 11):
                assert o.status == "failed" and "InjectedFault" in o.error
            elif o.seed == 15:
                assert o.status == "timed-out"
            else:
                assert o.ok and isinstance(o.metrics, SimMetrics)
        # The statistics run over the 16 survivors.
        assert len(trials.metrics) == 16
        assert trials.mean_active_fraction == pytest.approx(
            np.mean([0.5 + s * 0.01 for s in range(20) if s not in (2, 7, 11, 15)])
        )


class TestFaultPlan:
    def test_crash_seed_raises(self):
        with pytest.raises(InjectedFault, match="seed 3"):
            FaultPlan(crash_seeds=(3,)).apply(3)
        FaultPlan(crash_seeds=(3,)).apply(4)  # other seeds untouched

    def test_transient_threshold(self):
        plan = FaultPlan(transient_crashes={1: 2})
        with pytest.raises(InjectedFault):
            plan.apply(1, attempt=1)
        with pytest.raises(InjectedFault):
            plan.apply(1, attempt=2)
        plan.apply(1, attempt=3)  # recovered

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(hang_seconds=0.0)
        with pytest.raises(ValueError):
            FaultPlan(transient_crashes={0: 0})

    def test_plan_pickles(self):
        import pickle

        plan = FaultPlan(crash_seeds=(1,), transient_crashes={2: 1})
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_hang_sleeps_in_interruptible_slices(self, monkeypatch):
        """A hang must never block in one long uninterruptible sleep."""
        import repro.sim.faults as faults_mod

        clock = [0.0]
        slices = []

        def fake_monotonic():
            return clock[0]

        def fake_sleep(seconds):
            slices.append(seconds)
            clock[0] += seconds

        monkeypatch.setattr(faults_mod.time, "monotonic", fake_monotonic)
        monkeypatch.setattr(faults_mod.time, "sleep", fake_sleep)
        FaultPlan(hang_seeds=(5,), hang_seconds=0.35).apply(5)
        assert sum(slices) == pytest.approx(0.35)
        assert max(slices) <= 0.1  # reapable at every slice boundary
        assert len(slices) >= 4

    def test_hang_interrupt_propagates_at_slice_boundary(self, monkeypatch):
        """An interrupt delivered mid-hang escapes within one slice."""
        import repro.sim.faults as faults_mod

        calls = []

        def interrupting_sleep(seconds):
            calls.append(seconds)
            if len(calls) == 2:
                raise KeyboardInterrupt

        monkeypatch.setattr(faults_mod.time, "sleep", interrupting_sleep)
        with pytest.raises(KeyboardInterrupt):
            FaultPlan(hang_seeds=(5,), hang_seconds=3600.0).apply(5)
        assert len(calls) == 2


# -- sharded campaigns -------------------------------------------------------


class TestShardedCampaign:
    def test_matches_process_per_seed(self, enforced_kwargs):
        # A one-seed campaign with workers runs that seed in a process
        # of its own.
        per_seed = [
            run_trials(EnforcedWaitsSimulator, enforced_kwargs, [s], workers=2)
            for s in range(6)
        ]
        sharded = run_trials(
            EnforcedWaitsSimulator, enforced_kwargs, 6, workers=3
        )
        assert sharded.all_ok
        for a, (b,) in zip(sharded.outcomes, (r.outcomes for r in per_seed)):
            assert a.seed == b.seed
            assert_metrics_bit_identical(a.metrics, b.metrics)

    def test_serial_path_matches_sharded(self, enforced_kwargs):
        serial = run_trials(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=0
        )
        sharded = run_trials(
            EnforcedWaitsSimulator, enforced_kwargs, 4, workers=2
        )
        assert [o.metrics.outputs for o in serial.outcomes] == [
            o.metrics.outputs for o in sharded.outcomes
        ]

    def test_explicit_seed_list_preserves_order(self):
        result = run_trials(FastSim, {}, [9, 3, 11], workers=2)
        assert [o.seed for o in result.outcomes] == [9, 3, 11]
        assert result.all_ok

    def test_seed_in_kwargs_rejected(self):
        with pytest.raises(SpecError, match="seeds argument"):
            run_trials(FastSim, {"seed": 1}, 2)

    def test_negative_workers_rejected(self):
        with pytest.raises(SpecError, match="workers"):
            run_trials(FastSim, {}, 2, workers=-1)

    def test_crash_is_contained_per_seed(self):
        result = run_trials(CrashingSim, {}, 4, workers=2)
        assert not result.all_ok
        assert len(result.failures) == 4
        for o in result.outcomes:
            assert o.status == "failed"
            assert "boom from seed" in o.error

    def test_dead_shard_seeds_recorded_as_failed(self):
        result = run_trials(DyingSim, {}, 4, workers=2)
        assert not result.all_ok
        for o in result.outcomes:
            assert o.status == "failed"
            assert "died without a result" in o.error

    def test_strict_raises_with_partial_result_attached(self):
        with pytest.raises(CampaignError) as exc_info:
            run_trials(CrashingSim, {}, 3, workers=2, strict=True)
        attached = exc_info.value.result
        assert len(attached.outcomes) == 3

    def test_unpicklable_kwargs_fail_early(self):
        with pytest.raises(SpecError, match="picklable"):
            run_trials(FastSim, {"cb": lambda: None}, 4, workers=2)


# -- job-list runner ---------------------------------------------------------


class ExitingSim:
    """Finishes instantly, or kills its worker process when ``die``."""

    def __init__(self, *, die: bool = False, seed: int = 0) -> None:
        self.die = die
        self.seed = seed

    def run(self) -> SimMetrics:
        if self.die:
            os._exit(17)
        return _dummy_metrics(self.seed)


class TestJobListRunner:
    def test_per_job_kwargs_match_serial_in_job_order(self, enforced_kwargs):
        jobs = [
            (dict(enforced_kwargs, n_items=n, arrivals=FixedRateArrivals(t)),
             seed)
            for n, t, seed in [
                (1000, 20.0, 4), (2000, 20.0, 1), (1500, 30.0, 4),
                (2000, 40.0, 0), (1000, 30.0, 9),
            ]
        ]
        serial = list(_run_jobs(EnforcedWaitsSimulator, jobs))
        assert [i for i, _ in serial] == list(range(len(jobs)))
        sharded = dict(_run_jobs(EnforcedWaitsSimulator, jobs, workers=2))
        assert sorted(sharded) == list(range(len(jobs)))
        for i, a in serial:
            b = sharded[i]
            assert (a.seed, a.status) == (b.seed, b.status) == (jobs[i][1], "ok")
            assert a.metrics.n_items == b.metrics.n_items == jobs[i][0]["n_items"]
            assert_metrics_bit_identical(a.metrics, b.metrics)

    def test_dead_shard_fails_only_its_unfinished_jobs(self, monkeypatch):
        # Two shards: jobs 0-2 and jobs 3-5.  Job 4 kills its worker, so
        # job 3 (already streamed back) stays ok, job 4 fails, and job 5
        # runs in a restarted shard.
        starts = _count_process_starts(monkeypatch)
        jobs = [({"die": i == 4}, i) for i in range(6)]
        outcomes = dict(_run_jobs(ExitingSim, jobs, workers=2))
        assert [outcomes[i].status for i in range(6)] == [
            "ok", "ok", "ok", "ok", "failed", "ok"
        ]
        assert "died without a result" in outcomes[4].error
        assert "17" in outcomes[4].error
        assert [outcomes[i].seed for i in range(6)] == list(range(6))
        assert len(starts) == 3
