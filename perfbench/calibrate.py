"""Workload ``calibrate``: the paper's Section 6.2 calibration campaign.

Raise-and-retry calibration of the per-node queue multipliers ``b`` on
the Table 1 BLAST pipeline (v=128) over the ``run_calibration`` grid,
fanned out over two worker processes.  This is the most expensive task
users of the repository run.  The closed-form fast path, the per-point
solves and the process-per-seed campaign runner do nearly all the work;
the discrete-event loop does none (every trial takes the fast path).

The grid and stream sizes are fixed.  Each run repeats the whole
campaign until its time is up; the run's seed picks the trial seeds of
the first repetition and each later one takes the next block of seeds,
so a run's figures average over several campaigns' inputs.  The check
compares the first repetition with a serial in-process run.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass

import numpy as np

from perfbench.common import (
    SETUP_REPEATS,
    Check,
    Measured,
    another,
    import_seconds,
)
from perfbench.stats import campaign_overhead, median, tail

TAU0S = (3.0, 5.0, 20.0, 80.0)
DEADLINES = (2.0e4, 3.0e4, 6.0e4, 1.5e5, 3.0e5)
N_TRIALS = 8
N_ITEMS = 20_000
WORKERS = 2
IMPORTS = ["repro.apps.blast.pipeline", "repro.core.calibration",
           "repro.sim.campaign"]


@dataclass
class State:
    pipeline: object
    seed: int
    setup_samples: list


def prepare(seed: int) -> State:
    from repro.apps.blast.pipeline import blast_pipeline

    samples = [import_seconds(IMPORTS) for _ in range(SETUP_REPEATS)]
    return State(blast_pipeline(), seed, samples)


def _seed_base(state: State, rep: int) -> int:
    """First trial seed of repetition ``rep``: disjoint blocks per run."""
    return (state.seed * 1000 + rep) * N_TRIALS


def _campaign(state: State, rep: int, workers: int | None):
    from repro.core.calibration import calibrate_enforced_b

    return calibrate_enforced_b(
        state.pipeline,
        np.asarray(TAU0S),
        np.asarray(DEADLINES),
        n_trials=N_TRIALS,
        n_items=N_ITEMS,
        seed_base=_seed_base(state, rep),
        workers=workers,
    )


def _items(result) -> int:
    """DES items the campaign simulated: every trial of every feasible point."""
    return sum(r.feasible_points for r in result.rounds) * N_TRIALS * N_ITEMS


def measure(state: State, seconds: float, tracer) -> Measured:
    walls, rates, results, errors = [], [], [], []
    t_end = time.perf_counter() + seconds
    while another(t_end, walls, errors):
        rep = len(walls) + len(errors)
        with tracer.span("campaign:calibrate", request=f"rep-{rep}"):
            t0 = time.perf_counter()
            try:
                result = _campaign(state, rep, WORKERS)
            except Exception:  # a failed campaign is counted, not fatal
                errors.append(traceback.format_exc())
                continue
            wall = time.perf_counter() - t0
        walls.append(wall)
        rates.append(_items(result) / wall)
        results.append(result)
    if not walls:
        raise RuntimeError("every campaign failed:\n" + errors[-1])
    attempted = len(walls) + len(errors)
    ms = np.asarray(walls) * 1e3
    return Measured(
        throughput=median(rates),
        p50_ms=median(ms),
        tail=tail(ms),
        success=len(walls) / attempted,
        attempted=attempted,
        failed=len(errors),
        raw={"results": results, "walls": walls, "errors": errors},
        notes=[f"{len(walls)} campaigns: rounds "
               f"{[r.n_rounds for r in results]}, DES items "
               f"{[_items(r) for r in results]}"],
    )


def check(state: State, m: Measured, tracer) -> list[Check]:
    errors = m.raw["errors"]
    checks = [Check("calibrate.campaigns_completed", not errors,
                    errors[0] if errors else "")]
    if errors:
        return checks
    with tracer.span("campaign:serial"):
        reference = _campaign(state, 0, None)
    res = m.raw["results"][0]
    checks.append(Check(
        "calibrate.equals_serial",
        np.array_equal(res.b, reference.b)
        and res.n_rounds == reference.n_rounds
        and res.passed == reference.passed,
        f"b={res.b.tolist()} rounds={res.n_rounds} passed={res.passed} vs "
        f"serial b={reference.b.tolist()} rounds={reference.n_rounds} "
        f"passed={reference.passed}",
    ))
    # Every round's verdicts too: the campaign runner promises results
    # identical to the serial run, trial for trial.
    rounds = [_round(r) for r in res.rounds]
    serial = [_round(r) for r in reference.rounds]
    checks.append(Check("calibrate.rounds_equal_serial", rounds == serial,
                        f"{rounds} vs serial {serial}"))
    return checks


def _round(r) -> tuple:
    return (tuple(r.b.tolist()), r.worst_miss_free, r.worst_miss_rate,
            tuple(r.failing_points), r.feasible_points)


def layers(state: State, m: Measured, tracer) -> dict:
    """Replay the campaign's rounds in-process, timing solves and trials."""
    from repro.arrivals.fixed import FixedRateArrivals
    from repro.core.enforced_waits import EnforcedWaitsProblem
    from repro.core.model import RealTimeProblem
    from repro.sim.enforced import EnforcedWaitsSimulator

    solve_s, trial_s, events = [], [], []
    for rnd in m.raw["results"][0].rounds:
        for tau0 in TAU0S:
            for deadline in DEADLINES:
                problem = RealTimeProblem(state.pipeline, tau0, deadline)
                with tracer.span("core:solve"):
                    t0 = time.perf_counter()
                    sol = EnforcedWaitsProblem(problem, rnd.b).solve()
                    solve_s.append(time.perf_counter() - t0)
                if not sol.feasible:
                    continue
                for s in range(N_TRIALS):
                    with tracer.span("sim:trial"):
                        t0 = time.perf_counter()
                        sim = EnforcedWaitsSimulator(
                            state.pipeline, sol.waits,
                            FixedRateArrivals(tau0), deadline, N_ITEMS,
                            seed=_seed_base(state, 0) + s,
                        )
                        sim.run()
                        trial_s.append(time.perf_counter() - t0)
                    events.append(sim.engine.events_processed)
    trial_ms = np.asarray(trial_s) * 1e3
    total_trial = float(np.sum(trial_s))
    wall = median(m.raw["walls"])
    return {
        "core.solve_ms": median(solve_s) * 1e3,
        "sim.trial_ms.p50": median(trial_ms),
        "sim.trial_ms.tail": tail(trial_ms).value,
        "sim.items_per_s": len(trial_s) * N_ITEMS / total_trial,
        "sim.fastpath_share": float(np.mean(np.asarray(events) == 0)),
        "des.events": int(np.sum(events)),
        "des.events_per_s": float(np.sum(events)) / total_trial,
        "campaign.wall_s": wall,
        "campaign.overhead_s": campaign_overhead(
            wall, float(np.sum(solve_s)), total_trial, WORKERS),
    }
