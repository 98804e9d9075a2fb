"""Extension S1: bursty arrivals and the worst-case scale parameter S.

Section 5 motivates the monolithic worst-case model ``That(M) <= S*Tbar(M)``
with: "S may be larger if the stream exhibits sustained non-average-case
behavior over longer stretches."  This experiment makes that sentence
quantitative: design the monolithic pipeline for a *fixed-rate* stream at
several assumed ``S`` values, then replay each design under a bursty
stream of the same mean rate (Markov-modulated,
:class:`repro.arrivals.bursty.BurstyArrivals`) and record which ``S``
first survives.  The enforced-waits design (paper-calibrated ``b``) is
replayed under the same streams for comparison.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.blast.pipeline import blast_pipeline, calibrated_b
from repro.arrivals.bursty import BurstyArrivals
from repro.arrivals.fixed import FixedRateArrivals
from repro.core.enforced_waits import EnforcedWaitsProblem
from repro.core.model import RealTimeProblem
from repro.core.monolithic import MonolithicProblem
from repro.experiments.scale import scaled
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.campaign import run_trials
from repro.utils.tables import render_table

__all__ = ["BurstyStressResult", "run_bursty_stress"]

DEFAULT_POINT: tuple[float, float] = (20.0, 6.0e4)


def _bursty_for(tau0: float, intensity: float) -> BurstyArrivals:
    """A bursty stream with mean inter-arrival tau0.

    ``intensity`` in (0, 1): bursts run ``intensity`` fraction faster
    streams; solve tau_normal so the mixture mean stays tau0.
    """
    burst_fraction = 0.25
    tau_burst = tau0 * (1.0 - intensity)
    tau_normal = (tau0 - burst_fraction * tau_burst) / (1 - burst_fraction)
    return BurstyArrivals(
        tau_normal,
        tau_burst,
        burst_fraction=burst_fraction,
        mean_burst_len=40.0,
    )


@dataclass
class BurstyStressResult:
    """Required S per burst intensity, plus enforced-waits comparison."""

    point: tuple[float, float]
    rows: list[tuple[float, float, float, float]] = field(
        default_factory=list
    )

    def required_s(self, intensity: float) -> float:
        for i, s, _e, _m in self.rows:
            if i == intensity:
                return s
        raise KeyError(intensity)

    def render(self) -> str:
        return render_table(
            [
                "burst intensity",
                "S required (monolithic)",
                "enforced miss-free frac",
                "monolithic miss-free frac @ S=1",
            ],
            self.rows,
            title=(
                f"S1: bursty-arrival stress at (tau0, D)={self.point} — "
                "Section 5: 'S may be larger if the stream exhibits "
                "sustained non-average-case behavior'"
            ),
        )


def run_bursty_stress(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    intensities: tuple[float, ...] = (0.0, 0.3, 0.6),
    n_trials: int | None = None,
    n_items: int | None = None,
    max_s: float = 2.0,
    target_miss_free: float = 0.9,
) -> BurstyStressResult:
    """Find the smallest assumed S surviving each burst intensity."""
    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(8, minimum=4)
    items = n_items if n_items is not None else scaled(12_000, minimum=4000)
    problem = RealTimeProblem(pipeline, tau0, deadline)
    esol = EnforcedWaitsProblem(problem, calibrated_b()).solve()

    result = BurstyStressResult(point=point)
    for intensity in intensities:
        arrivals = (
            FixedRateArrivals(tau0)
            if intensity == 0.0
            else _bursty_for(tau0, intensity)
        )

        # Enforced design under this stream.
        e_mf = float("nan")
        if esol.feasible:
            trials = run_trials(
                EnforcedWaitsSimulator,
                dict(
                    pipeline=pipeline,
                    waits=esol.waits,
                    arrivals=arrivals,
                    deadline=deadline,
                    n_items=items,
                ),
                trials_n,
                strict=True,
            )
            e_mf = trials.miss_free_fraction

        # Monolithic: raise the assumed S until the design survives.
        required = float("nan")
        mf_at_one = float("nan")
        s = 1.0
        while s <= max_s + 1e-9:
            msol = MonolithicProblem(problem, s_scale=s).solve()
            if not msol.feasible:
                break
            trials = run_trials(
                MonolithicSimulator,
                dict(
                    pipeline=pipeline,
                    block_size=msol.block_size,
                    arrivals=arrivals,
                    deadline=deadline,
                    n_items=items,
                ),
                trials_n,
                strict=True,
            )
            if s == 1.0:
                mf_at_one = trials.miss_free_fraction
            if trials.miss_free_fraction >= target_miss_free:
                required = s
                break
            s = round(s + 0.1, 10)
        result.rows.append((float(intensity), required, e_mf, mf_at_one))
    return result
