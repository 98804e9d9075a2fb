"""repro — reproduction of "Enabling Real-Time Irregular Data-Flow
Pipelines on SIMD Devices" (Plano & Buhler, SRMPDS/ICPP 2021).

The package implements the paper's scheduling strategies and every
substrate they rest on:

- :mod:`repro.core` — the enforced-waits and monolithic optimizations,
  feasibility/sensitivity analysis, parameter sweeps, and the empirical
  worst-case calibration loop.
- :mod:`repro.sim` — discrete-event simulators of both strategies.
- :mod:`repro.dataflow`, :mod:`repro.simd`, :mod:`repro.des`,
  :mod:`repro.arrivals`, :mod:`repro.solvers`, :mod:`repro.queueing` —
  the substrates (dataflow model, SIMD device, DES kernel, stream
  generators, optimization machinery, bulk-service queueing theory).
- :mod:`repro.apps` — the BLAST test application (Table 1) and the
  intro's motivating applications (gamma-ray burst detection, network
  intrusion detection, decision cascades).
- :mod:`repro.experiments` — one driver per paper table/figure.

Quickstart
----------
>>> from repro import blast_pipeline, RealTimeProblem, solve_enforced_waits
>>> problem = RealTimeProblem(blast_pipeline(), tau0=50.0, deadline=2.0e5)
>>> sol = solve_enforced_waits(problem, b=[1, 3, 9, 6])
>>> bool(sol.feasible)
True
"""

from repro._version import __version__
from repro.core.model import RealTimeProblem
from repro.core.enforced_waits import (
    EnforcedWaitsProblem,
    EnforcedWaitsSolution,
    optimistic_b,
    solve_enforced_waits,
)
from repro.core.monolithic import (
    MonolithicProblem,
    MonolithicSolution,
    solve_monolithic,
)
from repro.core.sweep import SweepResult, paper_grid, sweep_strategies
from repro.core.analysis import difference_surface, dominance_regions
from repro.core.calibration import calibrate_enforced_b
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.dataflow.gains import (
    BernoulliGain,
    CensoredPoissonGain,
    DeterministicGain,
    EmpiricalGain,
    MixtureGain,
)
from repro.arrivals import (
    BurstyArrivals,
    FixedRateArrivals,
    PoissonArrivals,
    TraceArrivals,
)
from repro.core.admission import AdmissionRequest, admit, max_copies
from repro.core.offsets import aligned_offsets
from repro.core.pareto import deadline_frontier, min_deadline_for_af
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.campaign import run_trials
from repro.apps.blast.pipeline import blast_pipeline, CALIBRATED_B

__all__ = [
    "__version__",
    "RealTimeProblem",
    "EnforcedWaitsProblem",
    "EnforcedWaitsSolution",
    "optimistic_b",
    "solve_enforced_waits",
    "MonolithicProblem",
    "MonolithicSolution",
    "solve_monolithic",
    "SweepResult",
    "paper_grid",
    "sweep_strategies",
    "difference_surface",
    "dominance_regions",
    "calibrate_enforced_b",
    "NodeSpec",
    "PipelineSpec",
    "BernoulliGain",
    "CensoredPoissonGain",
    "DeterministicGain",
    "EmpiricalGain",
    "MixtureGain",
    "FixedRateArrivals",
    "PoissonArrivals",
    "BurstyArrivals",
    "TraceArrivals",
    "EnforcedWaitsSimulator",
    "AdaptiveWaitsSimulator",
    "MonolithicSimulator",
    "run_trials",
    "aligned_offsets",
    "deadline_frontier",
    "min_deadline_for_af",
    "AdmissionRequest",
    "admit",
    "max_copies",
    "blast_pipeline",
    "CALIBRATED_B",
]
