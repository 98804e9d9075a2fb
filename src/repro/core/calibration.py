"""Empirical calibration of worst-case parameters (Section 6.2).

The deadline constraints of both optimizations depend on parameters that
summarize worst-case queueing behaviour (``b_i`` per node for enforced
waits; ``b`` and ``S`` for monolithic).  The paper sets these empirically:

    "We began with optimistic choices for the worst-case parameters
    (b_i = ceil(g_i) and b = 1, S = 1 ...), then used the optimizer to
    implement each strategy and checked how often the simulator reported
    deadline misses over 100 runs with different random seeds.  If
    frequent misses were observed for any tested values of D and tau_0,
    we raised one or more parameters, re-optimized, and tried again."

:func:`calibrate_enforced_b` automates that loop.  The raise policy uses
the simulator's queue high-water marks: a failing grid point's observed
per-node depth (in vector-width units) is the natural candidate for the
new ``b_i``; if observations do not exceed the current assumption yet
misses persist, the node with the fullest queue relative to its assumption
is bumped by one.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from repro.arrivals.fixed import FixedRateArrivals
from repro.core.enforced_waits import EnforcedWaitsProblem, optimistic_b
from repro.core.model import RealTimeProblem
from repro.core.monolithic import MonolithicProblem
from repro.dataflow.spec import PipelineSpec
from repro.errors import CalibrationError, SpecError
from repro.sim.campaign import _run_jobs, run_trials
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.runner import TrialOutcome, TrialsResult

__all__ = [
    "CalibrationResult",
    "calibrate_enforced_b",
    "validate_monolithic_params",
    "calibrate_monolithic",
]


@dataclass
class CalibrationRound:
    """One iteration of the raise-and-retry loop."""

    b: np.ndarray
    worst_miss_free: float
    worst_miss_rate: float
    failing_points: list[tuple[float, float]]
    feasible_points: int


@dataclass
class CalibrationResult:
    """Outcome of a calibration campaign."""

    b: np.ndarray
    passed: bool
    rounds: list[CalibrationRound] = field(default_factory=list)

    @property
    def n_rounds(self) -> int:
        return len(self.rounds)


def _run_round(
    pipeline: PipelineSpec,
    tau0_values: np.ndarray,
    deadline_values: np.ndarray,
    b: np.ndarray,
    *,
    n_trials: int,
    n_items: int,
    target_miss_free: float,
    max_item_miss_rate: float,
    seed_base: int,
    workers: int | None,
) -> tuple[CalibrationRound, np.ndarray, np.ndarray]:
    """Solve and simulate every grid point under ``b``; fold the results.

    Every point is solved in grid order first (infeasible ones are
    skipped), then all feasible points' trials run as one job list.  A
    point is folded into the few numbers the raise loop reads as soon
    as its ``n_trials`` outcomes have arrived, and its ``SimMetrics``
    are dropped.  Returns the round with the failing points' observed
    ``b`` and queue-depth ratio (both elementwise maxima).
    """
    points: list[tuple[float, float]] = []
    jobs: list[tuple[dict, int]] = []
    for tau0 in tau0_values:
        for deadline in deadline_values:
            problem = RealTimeProblem(pipeline, float(tau0), float(deadline))
            solution = EnforcedWaitsProblem(problem, b).solve()
            if not solution.feasible:
                continue
            points.append((float(tau0), float(deadline)))
            kwargs = dict(
                pipeline=pipeline,
                waits=solution.waits,
                arrivals=FixedRateArrivals(float(tau0)),
                deadline=float(deadline),
                n_items=n_items,
            )
            jobs.extend((kwargs, seed_base + s) for s in range(n_trials))

    failing: dict[int, tuple[float, float]] = {}
    observed_max = np.ones(pipeline.n_nodes)
    hwm_ratio = np.zeros(pipeline.n_nodes)
    worst_mf = 1.0
    worst_mr = 0.0
    arrived: dict[int, dict[int, TrialOutcome]] = {}
    with closing(_run_jobs(EnforcedWaitsSimulator, jobs, workers=workers)) as stream:
        for index, outcome in stream:
            p, k = divmod(index, n_trials)
            got = arrived.setdefault(p, {})
            got[k] = outcome
            if len(got) < n_trials:
                continue
            del arrived[p]
            trials = TrialsResult(
                seeds=tuple(seed_base + s for s in range(n_trials)),
                outcomes=[got[s] for s in range(n_trials)],
            )
            tau0, deadline = points[p]
            if not trials.all_ok:
                bad = trials.failures[0]
                exc = CalibrationError(
                    f"trial at (tau0={tau0:g}, D={deadline:g}, "
                    f"seed={bad.seed}) {bad.status} ({len(trials.failures)} "
                    f"of {n_trials} trials at this point did not "
                    f"complete); first traceback:\n{bad.error}"
                )
                exc.outcome = bad  # type: ignore[attr-defined]
                raise exc
            mf = trials.miss_free_fraction
            mr = trials.max_miss_rate
            worst_mf = min(worst_mf, mf)
            worst_mr = max(worst_mr, mr)
            if mf < target_miss_free or mr > max_item_miss_rate:
                failing[p] = points[p]
                observed_max = np.maximum(observed_max, trials.observed_b())
                hwm = np.nanmax(
                    np.vstack([m.queue_hwm_vectors for m in trials.metrics]),
                    axis=0,
                )
                hwm_ratio = np.maximum(hwm_ratio, hwm / b)
    rnd = CalibrationRound(
        b=b.copy(),
        worst_miss_free=worst_mf,
        worst_miss_rate=worst_mr,
        failing_points=[failing[p] for p in sorted(failing)],
        feasible_points=len(points),
    )
    return rnd, observed_max, hwm_ratio


def calibrate_enforced_b(
    pipeline: PipelineSpec,
    tau0_values: np.ndarray,
    deadline_values: np.ndarray,
    *,
    n_trials: int = 20,
    n_items: int = 5000,
    target_miss_free: float = 0.95,
    max_item_miss_rate: float = 0.01,
    b0: np.ndarray | None = None,
    max_rounds: int = 25,
    seed_base: int = 0,
    workers: int | None = None,
) -> CalibrationResult:
    """Find per-node multipliers ``b_i`` passing the Section 6.2 criteria.

    A grid point *passes* when at least ``target_miss_free`` of trials are
    completely miss-free and no trial misses more than
    ``max_item_miss_rate`` of items.  Points infeasible under the current
    ``b`` are skipped (matching the paper, which reports results only on
    feasible realizations).  Raises :class:`CalibrationError` if the loop
    cannot converge within ``max_rounds``, and also if any trial fails
    (naming the point, seed and status, with the first traceback; the
    failed :class:`~repro.sim.runner.TrialOutcome` is ``exc.outcome``).

    ``workers > 1`` fans each round's trials — every feasible point's
    seeds, as one job list — out over that many shard processes of the
    supervisor behind :func:`repro.sim.campaign.run_trials`, so a round
    with no failures starts ``workers`` processes; results are identical
    to the serial run.
    """
    tau0_values = np.atleast_1d(np.asarray(tau0_values, dtype=float))
    deadline_values = np.atleast_1d(np.asarray(deadline_values, dtype=float))
    if n_trials < 1 or n_items < 1:
        raise SpecError("n_trials and n_items must be >= 1")
    b = (
        optimistic_b(pipeline)
        if b0 is None
        else np.asarray(b0, dtype=float).copy()
    )
    result = CalibrationResult(b=b.copy(), passed=False)

    for _ in range(max_rounds):
        rnd, observed_max, hwm_ratio = _run_round(
            pipeline,
            tau0_values,
            deadline_values,
            b,
            n_trials=n_trials,
            n_items=n_items,
            target_miss_free=target_miss_free,
            max_item_miss_rate=max_item_miss_rate,
            seed_base=seed_base,
            workers=workers,
        )
        result.rounds.append(rnd)
        if rnd.feasible_points == 0:
            raise CalibrationError(
                "no feasible grid point under the current b; widen the grid "
                "or lower b0"
            )
        if not rnd.failing_points:
            result.b = b.copy()
            result.passed = True
            return result
        new_b = np.maximum(b, observed_max)
        if (new_b == b).all():
            # Depths did not exceed assumptions yet misses persist: bump
            # the node running closest to (or beyond) its assumed depth.
            new_b = b.copy()
            new_b[int(np.argmax(hwm_ratio))] += 1.0
        b = new_b
    raise CalibrationError(
        f"calibration did not converge in {max_rounds} rounds "
        f"(last b = {b.tolist()})"
    )


def validate_monolithic_params(
    pipeline: PipelineSpec,
    tau0_values: np.ndarray,
    deadline_values: np.ndarray,
    *,
    b: int = 1,
    s_scale: float = 1.0,
    n_trials: int = 20,
    n_items: int = 5000,
    target_miss_free: float = 0.95,
    seed_base: int = 0,
) -> tuple[bool, list[tuple[float, float, float]]]:
    """Check the paper's claim that ``b=1, S=1`` is miss-free monolithically.

    Returns ``(all_passed, failures)`` where each failure is
    ``(tau0, deadline, miss_free_fraction)``.  Infeasible points are
    skipped.
    """
    tau0_values = np.atleast_1d(np.asarray(tau0_values, dtype=float))
    deadline_values = np.atleast_1d(np.asarray(deadline_values, dtype=float))
    failures: list[tuple[float, float, float]] = []
    for tau0 in tau0_values:
        for deadline in deadline_values:
            problem = RealTimeProblem(pipeline, float(tau0), float(deadline))
            sol = MonolithicProblem(problem, b=b, s_scale=s_scale).solve()
            if not sol.feasible:
                continue
            trials = run_trials(
                MonolithicSimulator,
                dict(
                    pipeline=pipeline,
                    block_size=sol.block_size,
                    arrivals=FixedRateArrivals(float(tau0)),
                    deadline=float(deadline),
                    n_items=n_items,
                ),
                range(seed_base, seed_base + n_trials),
                strict=True,
            )
            if trials.miss_free_fraction < target_miss_free:
                failures.append(
                    (float(tau0), float(deadline), trials.miss_free_fraction)
                )
    return (not failures, failures)


def calibrate_monolithic(
    pipeline: PipelineSpec,
    tau0_values: np.ndarray,
    deadline_values: np.ndarray,
    *,
    n_trials: int = 20,
    n_items: int = 5000,
    target_miss_free: float = 0.95,
    s_step: float = 0.1,
    max_s: float = 3.0,
    seed_base: int = 0,
) -> tuple[int, float, bool]:
    """Find ``(b, S)`` making the monolithic strategy pass the criteria.

    Starts at the paper's optimistic ``b=1, S=1`` and raises ``S`` in
    ``s_step`` increments (raising the worst-case service-time allowance,
    which shrinks the feasible block range) until every feasible grid
    point passes.  Returns ``(b, S, passed)``.  The paper reports the
    optimistic values already passed on its grid; on ours a small ``S``
    bump can be needed at the tightest-deadline corner, where the optimal
    block is small and per-block service-time variance is relatively
    large.
    """
    b = 1
    s = 1.0
    while s <= max_s + 1e-9:
        ok, _failures = validate_monolithic_params(
            pipeline,
            tau0_values,
            deadline_values,
            b=b,
            s_scale=s,
            n_trials=n_trials,
            n_items=n_items,
            target_miss_free=target_miss_free,
            seed_base=seed_base,
        )
        if ok:
            return (b, s, True)
        s = round(s + s_step, 10)
    return (b, s - s_step, False)
