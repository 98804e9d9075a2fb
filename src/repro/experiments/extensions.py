"""Extension experiments A4-A6: beyond the paper's fixed-wait model.

- A4 (adaptive firing): the optimizer's waits treated as *maximum* waits,
  with early-firing triggers (full vector / deadline slack).  Active
  fraction is preserved or improved while latency falls — quantifying the
  headroom the paper's fixed-wait simplification leaves on the table.
- A5 (phase offsets): staggering first firings along the chain
  (:func:`repro.core.offsets.aligned_offsets`) to cut per-stage waiting.
- A6 (gain sensitivity): probes the paper's Section 6.3 observation that
  "enforced-waits is more sensitive to stochastic changes in gain at each
  stage than the monolithic approach".  Both designs (paper-calibrated
  parameters) are re-simulated under burstier same-mean gains.  *Our*
  simulator shows the opposite ordering: the paper's b = (1, 3, 9, 6) is
  over-provisioned for our realization (our own calibration needed only
  (1, 3, 4, 2)), leaving the enforced design ample queue headroom, while
  the monolithic design with the paper's S = 1 is the marginal one at
  tight deadlines (cf. experiment E4, where our calibration raised S to
  1.2).  The experiment reports whichever direction the data shows; see
  EXPERIMENTS.md for the discussion of this delta.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.blast.pipeline import blast_pipeline, calibrated_b
from repro.arrivals.fixed import FixedRateArrivals
from repro.core.enforced_waits import EnforcedWaitsProblem
from repro.core.model import RealTimeProblem
from repro.core.monolithic import MonolithicProblem
from repro.core.offsets import aligned_offsets
from repro.experiments.ablations import AblationResult
from repro.experiments.scale import scaled
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.campaign import run_trials
from repro.utils.tables import render_table

__all__ = [
    "run_adaptive_policies",
    "run_phase_offsets",
    "GainSensitivityResult",
    "run_gain_sensitivity",
]

DEFAULT_POINT: tuple[float, float] = (10.0, 3.5e5)


@dataclass
class LatencyAblationResult(AblationResult):
    """Ablation rows extended with latency columns."""

    latency_rows: list[tuple[str, float, float]] = field(default_factory=list)

    def render(self) -> str:
        base = super().render()
        lat = render_table(
            ["variant", "mean latency", "max latency"],
            self.latency_rows,
        )
        return base + "\n" + lat


def run_adaptive_policies(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> LatencyAblationResult:
    """A4: fixed waits vs full-vector and slack-triggered early firing."""
    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(10, minimum=3)
    items = n_items if n_items is not None else scaled(8000, minimum=2000)
    sol = EnforcedWaitsProblem(
        RealTimeProblem(pipeline, tau0, deadline), calibrated_b()
    ).solve()
    result = LatencyAblationResult(
        title=(
            f"A4 adaptive firing policies at tau0={tau0}, D={deadline:.3g} "
            f"(optimizer predicts AF={sol.active_fraction:.4f})"
        )
    )
    for policy in ("fixed", "full-vector", "slack"):
        trials = run_trials(
            AdaptiveWaitsSimulator,
            dict(
                pipeline=pipeline,
                waits=sol.waits,
                arrivals=FixedRateArrivals(tau0),
                deadline=deadline,
                n_items=items,
                policy=policy,
            ),
            trials_n,
            strict=True,
        )
        result.rows.append(
            (
                policy,
                trials.mean_active_fraction,
                trials.miss_free_fraction,
                trials.mean_miss_rate,
            )
        )
        lat = [m.mean_latency for m in trials.metrics]
        lat_max = [m.max_latency for m in trials.metrics]
        result.latency_rows.append(
            (policy, float(np.mean(lat)), float(np.max(lat_max)))
        )
    return result


def run_phase_offsets(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> LatencyAblationResult:
    """A5: zero phases vs chain-aligned first-firing offsets."""
    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(10, minimum=3)
    items = n_items if n_items is not None else scaled(8000, minimum=2000)
    sol = EnforcedWaitsProblem(
        RealTimeProblem(pipeline, tau0, deadline), calibrated_b()
    ).solve()
    offsets = aligned_offsets(pipeline, sol.periods)
    result = LatencyAblationResult(
        title=(
            f"A5 phase offsets at tau0={tau0}, D={deadline:.3g} "
            f"(aligned offsets: {np.round(offsets, 1).tolist()})"
        )
    )
    for name, offs in (
        ("zero phases (default)", None),
        ("chain-aligned phases", offsets),
    ):
        trials = run_trials(
            EnforcedWaitsSimulator,
            dict(
                pipeline=pipeline,
                waits=sol.waits,
                arrivals=FixedRateArrivals(tau0),
                deadline=deadline,
                n_items=items,
                start_offsets=offs,
            ),
            trials_n,
            strict=True,
        )
        result.rows.append(
            (
                name,
                trials.mean_active_fraction,
                trials.miss_free_fraction,
                trials.mean_miss_rate,
            )
        )
        lat = [m.mean_latency for m in trials.metrics]
        lat_max = [m.max_latency for m in trials.metrics]
        result.latency_rows.append(
            (name, float(np.mean(lat)), float(np.max(lat_max)))
        )
    return result


@dataclass
class GainSensitivityResult:
    """Miss behaviour of both strategies under inflated gain variance."""

    point: tuple[float, float]
    rows: list[tuple[str, str, float, float]] = field(default_factory=list)

    def miss_rate(self, strategy: str, workload: str) -> float:
        for s, w, _mf, mr in self.rows:
            if s == strategy and w == workload:
                return mr
        raise KeyError((strategy, workload))

    def degradation(self, strategy: str) -> float:
        """Miss-rate increase from nominal to bursty workload."""
        return self.miss_rate(strategy, "bursty") - self.miss_rate(
            strategy, "nominal"
        )

    def render(self) -> str:
        table = render_table(
            ["strategy", "workload", "miss-free frac", "mean miss rate"],
            self.rows,
            title=(
                f"A6 gain sensitivity at (tau0, D)={self.point} — Section "
                "6.3: enforced waits react more to stochastic gain changes"
            ),
        )
        summary = (
            f"\nmiss-rate degradation under bursty gains: "
            f"enforced {self.degradation('enforced'):+.4f}, "
            f"monolithic {self.degradation('monolithic'):+.4f}"
        )
        return table + summary


def run_gain_sensitivity(
    point: tuple[float, float] = (20.0, 4.0e4),
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> GainSensitivityResult:
    """A6: re-simulate both calibrated designs under burstier gains.

    The default point has modest deadline slack, where extra gain variance
    actually threatens deadlines.
    """
    from repro.experiments.ablations import _bursty_variant

    pipeline = blast_pipeline()
    bursty = _bursty_variant(pipeline)
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(12, minimum=4)
    items = n_items if n_items is not None else scaled(12_000, minimum=4000)

    problem = RealTimeProblem(pipeline, tau0, deadline)
    esol = EnforcedWaitsProblem(problem, calibrated_b()).solve()
    msol = MonolithicProblem(problem).solve()

    result = GainSensitivityResult(point=point)
    for workload, spec in (("nominal", pipeline), ("bursty", bursty)):
        if esol.feasible:
            trials = run_trials(
                EnforcedWaitsSimulator,
                dict(
                    pipeline=spec,
                    waits=esol.waits,
                    arrivals=FixedRateArrivals(tau0),
                    deadline=deadline,
                    n_items=items,
                ),
                trials_n,
                strict=True,
            )
            result.rows.append(
                (
                    "enforced",
                    workload,
                    trials.miss_free_fraction,
                    trials.mean_miss_rate,
                )
            )
        if msol.feasible:
            trials = run_trials(
                MonolithicSimulator,
                dict(
                    pipeline=spec,
                    block_size=msol.block_size,
                    arrivals=FixedRateArrivals(tau0),
                    deadline=deadline,
                    n_items=items,
                ),
                trials_n,
                strict=True,
            )
            result.rows.append(
                (
                    "monolithic",
                    workload,
                    trials.miss_free_fraction,
                    trials.mean_miss_rate,
                )
            )
    return result
