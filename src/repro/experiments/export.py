"""Structured export of experiment results (JSON/CSV).

Rendered ASCII tables are good for terminals; plotting and downstream
analysis want structured data.  These helpers serialize the main result
objects to plain dict/JSON and CSV without any plotting dependency.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.sweep import SweepResult
from repro.errors import SpecError
from repro.obs.telemetry import RunTelemetry
from repro.sim.metrics import SimMetrics
from repro.sim.runner import TrialsResult

__all__ = [
    "sweep_to_dict",
    "metrics_to_dict",
    "telemetry_to_dict",
    "telemetry_to_csv",
    "trials_to_dict",
    "save_json",
    "sweep_to_csv",
]


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays for json.dumps."""
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and (value != value):  # NaN
        return None
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def sweep_to_dict(sweep: SweepResult) -> dict:
    """A :class:`SweepResult` as a JSON-ready dict (NaN -> null)."""
    return _jsonable(
        {
            "tau0_values": sweep.tau0_values,
            "deadline_values": sweep.deadline_values,
            "enforced_af": sweep.enforced_af,
            "monolithic_af": sweep.monolithic_af,
            "enforced_periods": sweep.enforced_periods,
            "monolithic_block": sweep.monolithic_block,
            "b_enforced": sweep.b_enforced,
            "b_monolithic": sweep.b_monolithic,
            "s_scale": sweep.s_scale,
            "meta": sweep.meta,
        }
    )


def telemetry_to_dict(telemetry: RunTelemetry) -> dict:
    """A :class:`RunTelemetry` as a JSON-ready dict.

    The schema mirrors the dataclasses: ``nodes`` is a list of per-node
    records (firing counts, occupancy, service/wait split, queue
    high-water marks and time-averages) and ``engine`` the event-loop
    statistics including the derived rates.
    """
    eng = telemetry.engine
    return _jsonable(
        {
            "strategy": telemetry.strategy,
            "nodes": [
                {
                    "name": n.name,
                    "firings": n.firings,
                    "empty_firings": n.empty_firings,
                    "items_consumed": n.items_consumed,
                    "mean_occupancy": n.mean_occupancy,
                    "service_time": n.service_time,
                    "wait_time": n.wait_time,
                    "queue_hwm": n.queue_hwm,
                    "queue_hwm_vectors": n.queue_hwm_vectors,
                    "queue_time_avg": n.queue_time_avg,
                    "queue_pushed": n.queue_pushed,
                    "queue_popped": n.queue_popped,
                    "queue_shed": n.queue_shed,
                }
                for n in telemetry.nodes
            ],
            "degraded_intervals": [
                list(pair) for pair in telemetry.degraded_intervals
            ],
            "engine": {
                "events_processed": eng.events_processed,
                "sim_time": eng.sim_time,
                "wall_time": eng.wall_time,
                "events_per_wall_second": eng.events_per_wall_second,
                "wall_time_per_sim_second": eng.wall_time_per_sim_second,
            },
        }
    )


_TELEMETRY_CSV_COLUMNS = (
    "name",
    "firings",
    "empty_firings",
    "items_consumed",
    "mean_occupancy",
    "service_time",
    "wait_time",
    "queue_hwm",
    "queue_hwm_vectors",
    "queue_time_avg",
    "queue_pushed",
    "queue_popped",
    "queue_shed",
)


def telemetry_to_csv(telemetry: RunTelemetry, path: str | Path) -> Path:
    """One CSV row per node (engine stats belong in the JSON export)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    records = telemetry_to_dict(telemetry)["nodes"]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_TELEMETRY_CSV_COLUMNS)
        for rec in records:
            writer.writerow(
                ["" if rec[c] is None else rec[c] for c in _TELEMETRY_CSV_COLUMNS]
            )
    return path


def trials_to_dict(trials: TrialsResult) -> dict:
    """A :class:`TrialsResult` as a JSON-ready dict.

    Contains the campaign's acceptance statistics, one outcome record per
    seed (status, attempts, duration, error), and each successful trial's
    metrics (with telemetry, when collected).
    """
    return _jsonable(
        {
            "seeds": list(trials.seeds),
            "n_attempted": trials.n_attempted,
            "n_ok": trials.n_trials,
            "n_failed": trials.n_failed,
            "n_timed_out": trials.n_timed_out,
            "miss_free_fraction": trials.miss_free_fraction,
            "mean_active_fraction": (
                trials.mean_active_fraction if trials.n_trials else None
            ),
            "outcomes": [
                {
                    "seed": o.seed,
                    "status": o.status,
                    "attempts": o.attempts,
                    "duration": o.duration,
                    "error": o.error,
                    "metrics": (
                        metrics_to_dict(o.metrics)
                        if o.metrics is not None
                        else None
                    ),
                }
                for o in trials.outcomes
            ],
        }
    )


def metrics_to_dict(metrics: SimMetrics) -> dict:
    """A :class:`SimMetrics` as a JSON-ready dict (ledgers omitted).

    A collected :class:`RunTelemetry` in ``extra["telemetry"]`` is
    serialized through :func:`telemetry_to_dict`.
    """
    extra = {
        k: v for k, v in metrics.extra.items() if k not in ("ledger", "sinks")
    }
    if isinstance(extra.get("telemetry"), RunTelemetry):
        extra["telemetry"] = telemetry_to_dict(extra["telemetry"])
    return _jsonable(
        {
            "strategy": metrics.strategy,
            "n_items": metrics.n_items,
            "makespan": metrics.makespan,
            "active_fraction": metrics.active_fraction,
            "active_time_per_node": metrics.active_time_per_node,
            "missed_items": metrics.missed_items,
            "miss_rate": metrics.miss_rate,
            "outputs": metrics.outputs,
            "mean_latency": metrics.mean_latency,
            "max_latency": metrics.max_latency,
            "queue_hwm_vectors": metrics.queue_hwm_vectors,
            "firings": metrics.firings,
            "empty_firings": metrics.empty_firings,
            "mean_occupancy": metrics.mean_occupancy,
            "extra": extra,
        }
    )


def save_json(data: dict, path: str | Path) -> Path:
    """Write a dict as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def sweep_to_csv(sweep: SweepResult, path: str | Path) -> Path:
    """One CSV row per (tau0, D) grid point."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    nt, nd = sweep.shape
    if nt == 0 or nd == 0:
        raise SpecError("cannot export an empty sweep")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["tau0", "deadline", "enforced_af", "monolithic_af", "monolithic_block"]
        )
        for i in range(nt):
            for j in range(nd):
                row = sweep.row(i, j)
                writer.writerow(
                    [
                        row["tau0"],
                        row["deadline"],
                        "" if np.isnan(row["enforced_af"]) else row["enforced_af"],
                        ""
                        if np.isnan(row["monolithic_af"])
                        else row["monolithic_af"],
                        row["monolithic_block"],
                    ]
                )
    return path
