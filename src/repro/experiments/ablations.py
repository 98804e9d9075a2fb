"""Ablations A1-A3 and the future-work Poisson-arrivals study (F2).

- A1 (timing model): the paper's idealized fixed-duration timing vs
  work-conserving GPS sharing.  Capped GPS must match idealized exactly;
  uncapped GPS can only speed firings up, so the idealized model is a
  conservative bound.
- A2 (empty-firing accounting): the paper charges empty firings as active
  time "for ease of analysis" but notes "in practice they could be treated
  as a vacation"; this measures the active fraction either way.
- A3 (gain models): deadline-miss behaviour of the calibrated design under
  the paper's Bernoulli/censored-Poisson gains, a burstier same-mean
  mixture, and the mini-BLAST empirical gains.
- F2 (Poisson arrivals): the Section 7 generalization from fixed-rate to
  Poisson arrivals, holding the calibrated design fixed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.blast.pipeline import blast_pipeline, calibrated_b
from repro.arrivals.fixed import FixedRateArrivals
from repro.arrivals.poisson import PoissonArrivals
from repro.core.enforced_waits import EnforcedWaitsProblem
from repro.core.model import RealTimeProblem
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
    MixtureGain,
)
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.experiments.scale import scaled
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.campaign import run_trials
from repro.utils.tables import render_table

__all__ = [
    "AblationResult",
    "run_ablation_timing",
    "run_ablation_vacation",
    "run_ablation_gain_models",
    "run_poisson_arrivals",
]

#: Default operating point: fast arrivals with deadline slack — the regime
#: where enforced waits matter most.
DEFAULT_POINT: tuple[float, float] = (10.0, 3.5e5)


@dataclass
class AblationResult:
    """Rows of (variant, active fraction, miss-free fraction, miss rate)."""

    title: str
    rows: list[tuple[str, float, float, float]] = field(default_factory=list)

    def variant(self, name: str) -> tuple[str, float, float, float]:
        for row in self.rows:
            if row[0] == name:
                return row
        raise KeyError(name)

    def render(self) -> str:
        return render_table(
            ["variant", "mean active fraction", "miss-free frac", "mean miss rate"],
            self.rows,
            title=self.title,
        )


def _enforced_trials(
    pipeline: PipelineSpec,
    tau0: float,
    deadline: float,
    waits: np.ndarray,
    *,
    n_trials: int,
    n_items: int,
    arrivals=None,
    **sim_kwargs,
):
    if arrivals is None:
        arrivals = FixedRateArrivals(tau0)
    return run_trials(
        EnforcedWaitsSimulator,
        dict(
            pipeline=pipeline,
            waits=waits,
            arrivals=arrivals,
            deadline=deadline,
            n_items=n_items,
            **sim_kwargs,
        ),
        n_trials,
        strict=True,
    )


def run_ablation_timing(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> AblationResult:
    """A1: idealized vs GPS timing at one operating point."""
    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(10, minimum=3)
    items = n_items if n_items is not None else scaled(5000, minimum=1000)
    sol = EnforcedWaitsProblem(
        RealTimeProblem(pipeline, tau0, deadline), calibrated_b()
    ).solve()
    result = AblationResult(
        title=f"A1 timing models at tau0={tau0}, D={deadline:.3g} "
        f"(optimizer predicts AF={sol.active_fraction:.4f})"
    )
    for timing in ("idealized", "gps-capped", "gps"):
        trials = _enforced_trials(
            pipeline,
            tau0,
            deadline,
            sol.waits,
            n_trials=trials_n,
            n_items=items,
            timing=timing,
        )
        result.rows.append(
            (
                timing,
                trials.mean_active_fraction,
                trials.miss_free_fraction,
                trials.mean_miss_rate,
            )
        )
    return result


def run_ablation_vacation(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> AblationResult:
    """A2: charging vs vacationing empty firings."""
    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(10, minimum=3)
    items = n_items if n_items is not None else scaled(5000, minimum=1000)
    sol = EnforcedWaitsProblem(
        RealTimeProblem(pipeline, tau0, deadline), calibrated_b()
    ).solve()
    result = AblationResult(
        title=f"A2 empty-firing accounting at tau0={tau0}, D={deadline:.3g} "
        f"(optimizer predicts AF={sol.active_fraction:.4f})"
    )
    for charge, name in ((True, "charged (paper)"), (False, "vacation")):
        trials = _enforced_trials(
            pipeline,
            tau0,
            deadline,
            sol.waits,
            n_trials=trials_n,
            n_items=items,
            charge_empty_firings=charge,
        )
        result.rows.append(
            (
                name,
                trials.mean_active_fraction,
                trials.miss_free_fraction,
                trials.mean_miss_rate,
            )
        )
    return result


def _bursty_variant(pipeline: PipelineSpec) -> PipelineSpec:
    """Same mean gains, heavier-tailed distributions (mixtures)."""
    nodes = []
    for node in pipeline.nodes:
        g = node.mean_gain
        if isinstance(node.gain, CensoredPoissonGain):
            u = node.gain.u
            lam = node.gain.lam
            # Mix a quiet and a loud Poisson with the same nominal mean.
            gain = MixtureGain(
                [
                    CensoredPoissonGain(lam * 0.25, u),
                    CensoredPoissonGain(min(lam * 4.0, float(u)), u),
                ],
                [0.8, 0.2],
            )
        elif 0.0 < g < 1.0:
            # Mix "mostly drop" and "mostly keep" phases with mean g.
            hi = min(1.0, g * 2.5)
            w_hi = g / hi if hi > 0 else 0.0
            gain = MixtureGain(
                [BernoulliGain(0.0), BernoulliGain(hi)], [1 - w_hi, w_hi]
            )
        elif g == 1.0:
            gain = DeterministicGain(1)
        else:
            gain = node.gain
        nodes.append(NodeSpec(node.name, node.service_time, gain))
    return PipelineSpec(tuple(nodes), pipeline.vector_width)


def run_ablation_gain_models(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> AblationResult:
    """A3: miss behaviour of the calibrated design under other gain models.

    The optimization sees only mean gains, so the *design* (waits) is
    identical across variants; what changes is how hard the stochastic
    gains stress the deadline.  Includes the mini-BLAST empirical gains.
    """
    from repro.apps.blast.trace_gains import (
        empirical_blast_pipeline,
        measure_gains,
    )

    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(10, minimum=3)
    items = n_items if n_items is not None else scaled(5000, minimum=1000)
    sol = EnforcedWaitsProblem(
        RealTimeProblem(pipeline, tau0, deadline), calibrated_b()
    ).solve()

    variants: list[tuple[str, PipelineSpec, np.ndarray, float]] = [
        ("paper model", pipeline, sol.waits, tau0)
    ]
    bursty = _bursty_variant(pipeline)
    variants.append(("bursty mixture (same means)", bursty, sol.waits, tau0))

    # The mini-BLAST pipeline has a stronger expander, so its fastest
    # feasible arrival rate is slower; run it at its own feasible tau0.
    from repro.core.feasibility import min_tau0_enforced

    trace = measure_gains(db_len=60_000, seed=7)
    empirical = empirical_blast_pipeline(trace)
    tau0_emp = max(tau0, 1.3 * min_tau0_enforced(empirical))
    esol = EnforcedWaitsProblem(
        RealTimeProblem(empirical, tau0_emp, deadline), calibrated_b()
    ).solve()
    if esol.feasible:
        variants.append(
            (
                f"mini-BLAST empirical (tau0={tau0_emp:.3g})",
                empirical,
                esol.waits,
                tau0_emp,
            )
        )

    result = AblationResult(
        title=f"A3 gain models at tau0={tau0}, D={deadline:.3g}"
    )
    for name, spec, waits, tau in variants:
        trials = _enforced_trials(
            spec, tau, deadline, waits, n_trials=trials_n, n_items=items
        )
        result.rows.append(
            (
                name,
                trials.mean_active_fraction,
                trials.miss_free_fraction,
                trials.mean_miss_rate,
            )
        )
    return result


def run_poisson_arrivals(
    point: tuple[float, float] = DEFAULT_POINT,
    *,
    n_trials: int | None = None,
    n_items: int | None = None,
) -> AblationResult:
    """F2: fixed-rate vs Poisson arrivals under the calibrated design."""
    pipeline = blast_pipeline()
    tau0, deadline = point
    trials_n = n_trials if n_trials is not None else scaled(10, minimum=3)
    items = n_items if n_items is not None else scaled(5000, minimum=1000)
    sol = EnforcedWaitsProblem(
        RealTimeProblem(pipeline, tau0, deadline), calibrated_b()
    ).solve()
    result = AblationResult(
        title=f"F2 arrival processes at tau0={tau0}, D={deadline:.3g}"
    )
    for name, arrivals in (
        ("fixed rate (paper)", FixedRateArrivals(tau0)),
        ("Poisson (Section 7)", PoissonArrivals(tau0)),
    ):
        trials = _enforced_trials(
            pipeline,
            tau0,
            deadline,
            sol.waits,
            n_trials=trials_n,
            n_items=items,
            arrivals=arrivals,
        )
        result.rows.append(
            (
                name,
                trials.mean_active_fraction,
                trials.miss_free_fraction,
                trials.mean_miss_rate,
            )
        )
    return result
