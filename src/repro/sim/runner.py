"""Result types of multi-seed trial campaigns.

Section 6.2: "checked how often the simulator reported deadline misses
over 100 runs with different random seeds ... no misses in at least 95% of
random trials".  :func:`repro.sim.campaign.run_trials` runs such a
campaign; this module holds what it returns.

Every trial produces a :class:`TrialOutcome` — ``ok``, ``failed`` (with
the captured traceback), or ``timed-out`` — and :class:`TrialsResult`
aggregates the paper's statistics over the successful subset, so a
campaign with a few bad seeds still reports its partial results instead
of losing everything.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import SpecError
from repro.sim.metrics import SimMetrics

__all__ = ["TrialOutcome", "TrialsResult", "normalize_seeds", "check_metrics"]

#: Trial status values.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMED_OUT = "timed-out"


@dataclass
class TrialOutcome:
    """The result of one seed's trial, successful or not.

    Attributes
    ----------
    seed:
        The trial's seed.
    status:
        ``"ok"``, ``"failed"``, or ``"timed-out"``.
    metrics:
        The run's :class:`SimMetrics` when ``status == "ok"``, else None.
    error:
        Captured traceback text of the final failing attempt (None when ok;
        a short diagnostic for timeouts).
    attempts:
        Total attempts made (> 1 when retries were consumed).
    duration:
        Wall-clock seconds of the final attempt (NaN if unmeasured).
    """

    seed: int
    status: str
    metrics: SimMetrics | None = None
    error: str | None = None
    attempts: int = 1
    duration: float = float("nan")

    def __post_init__(self) -> None:
        if self.status not in (STATUS_OK, STATUS_FAILED, STATUS_TIMED_OUT):
            raise SpecError(f"invalid trial status {self.status!r}")
        if (self.status == STATUS_OK) != (self.metrics is not None):
            raise SpecError(
                f"status {self.status!r} inconsistent with "
                f"metrics={'present' if self.metrics is not None else 'absent'}"
            )

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class TrialsResult:
    """Aggregated outcome of a multi-seed campaign.

    ``outcomes`` holds one :class:`TrialOutcome` per seed, in seed order;
    ``metrics`` exposes the successful runs' :class:`SimMetrics` (also in
    seed order), over which all acceptance statistics are computed.
    """

    seeds: tuple[int, ...]
    outcomes: list[TrialOutcome] = field(default_factory=list)

    @property
    def metrics(self) -> list[SimMetrics]:
        """SimMetrics of the successful trials, in seed order."""
        return [o.metrics for o in self.outcomes if o.metrics is not None]

    @property
    def n_trials(self) -> int:
        """Number of *successful* trials (the statistics' sample size)."""
        return len(self.metrics)

    @property
    def n_attempted(self) -> int:
        return len(self.outcomes)

    @property
    def n_failed(self) -> int:
        return sum(o.status == STATUS_FAILED for o in self.outcomes)

    @property
    def n_timed_out(self) -> int:
        return sum(o.status == STATUS_TIMED_OUT for o in self.outcomes)

    @property
    def failures(self) -> list[TrialOutcome]:
        """The non-ok outcomes, in seed order."""
        return [o for o in self.outcomes if not o.ok]

    @property
    def all_ok(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    @property
    def miss_free_fraction(self) -> float:
        """Fraction of runs with zero deadline misses (paper's >= 95%)."""
        metrics = self.metrics
        if not metrics:
            return float("nan")
        return sum(m.miss_free for m in metrics) / len(metrics)

    @property
    def mean_active_fraction(self) -> float:
        return float(np.mean([m.active_fraction for m in self.metrics]))

    @property
    def std_active_fraction(self) -> float:
        """Sample (n-1 denominator) std dev, matching Accumulator.variance."""
        afs = [m.active_fraction for m in self.metrics]
        if len(afs) < 2:
            return float("nan")
        return float(np.std(afs, ddof=1))

    @property
    def mean_miss_rate(self) -> float:
        """Mean fraction of items missing their deadline (paper's < 1%)."""
        return float(np.mean([m.miss_rate for m in self.metrics]))

    @property
    def max_miss_rate(self) -> float:
        return float(np.max([m.miss_rate for m in self.metrics]))

    def observed_b(self, quantile: float = 1.0) -> np.ndarray:
        """Empirical queue-depth multipliers across runs.

        For each node, the ``quantile`` of per-run queue high-water marks
        (in vector-width units), rounded up — the measured counterpart of
        the paper's assumed ``b_i``.
        """
        hwm = np.vstack([m.queue_hwm_vectors for m in self.metrics])
        q = np.nanquantile(hwm, quantile, axis=0)
        return np.maximum(1.0, np.ceil(q))


def _seed(value: object) -> int:
    """A non-negative Python or NumPy integer as an int, else SpecError."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        seed = operator.index(value)
    except TypeError:
        raise SpecError(f"seeds must be integers, got {value!r}") from None
    if seed < 0:
        raise SpecError(f"seeds must be non-negative integers, got {seed}")
    return seed


def normalize_seeds(seeds: Sequence[int] | int) -> tuple[int, ...]:
    """Expand an integer ``k`` to ``range(k)``; validate explicit sequences."""
    if not hasattr(seeds, "__iter__"):
        n = _seed(seeds)
        if n < 1:
            raise SpecError(f"need at least one trial, got {n}")
        return tuple(range(n))
    seed_list = tuple(_seed(s) for s in seeds)
    if not seed_list:
        raise SpecError("seeds must be non-empty")
    return seed_list


def check_metrics(sim: object, metrics: object) -> SimMetrics:
    """Validate a simulator's run() return value."""
    if not isinstance(metrics, SimMetrics):
        raise SpecError(
            f"{type(sim).__name__}.run() returned "
            f"{type(metrics).__name__}, not SimMetrics"
        )
    return metrics
