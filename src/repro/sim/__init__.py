"""Discrete-event simulators of the paper's execution model (Section 6.2).

"We developed a discrete-event simulation of pipeline execution on the
system described in Section 2.  The simulator is capable of processing a
long stream of simulated inputs using either of our two strategies and
determining how many inputs, if any, incur a deadline miss."

- :class:`~repro.sim.enforced.EnforcedWaitsSimulator` — per-node periodic
  firings with enforced waits ``w_i``, on a chain or a dataflow DAG.
- :class:`~repro.sim.monolithic.MonolithicSimulator` — whole-pipeline block
  processing with block size ``M``.
- :mod:`~repro.sim.metrics` — per-run metrics (active fraction, latency
  distribution, deadline misses, queue high-water marks).
- :func:`~repro.sim.campaign.run_trials` — the one multi-seed campaign
  runner (the paper's "100 runs with different random seeds"), serial
  or over worker processes; :mod:`~repro.sim.runner` holds its result
  types.
"""

from repro.sim.metrics import LatencyLedger, SimMetrics
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.campaign import run_trials
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.faults import FaultPlan, InjectedFault
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.runner import TrialOutcome, TrialsResult
from repro.sim.report import (
    summarize_metrics,
    summarize_telemetry,
    summarize_trials,
)

__all__ = [
    "SimMetrics",
    "LatencyLedger",
    "AdaptiveWaitsSimulator",
    "EnforcedWaitsSimulator",
    "MonolithicSimulator",
    "FaultPlan",
    "InjectedFault",
    "run_trials",
    "TrialOutcome",
    "TrialsResult",
    "summarize_metrics",
    "summarize_telemetry",
    "summarize_trials",
]
