"""What every workload returns, and the measurements they share."""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.stats import Tail

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3


def child_env() -> dict:
    """Environment for child interpreters that import the program."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def import_seconds(modules: list[str]) -> float:
    """Wall time for a fresh interpreter to import ``modules`` and exit."""
    t0 = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import " + ", ".join(modules)],
        env=child_env(),
        check=True,
        timeout=60,
    )
    return time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def cpu_ticks() -> tuple[int, int] | None:
    """(stolen, total) CPU ticks since boot from ``/proc/stat``.

    None where the file does not exist (not Linux).
    """
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after) -> float:
    """Share of CPU time the hypervisor gave to other guests in between.

    Every timing here is wall time, so a host that withholds CPU slows
    the program without any change to it; this says how much it did.
    """
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


@dataclass
class Check:
    """One output check; a run is correct only when every check passes."""

    name: str
    ok: bool
    detail: str = ""


@dataclass
class Measured:
    """One workload's measured phase: the end-to-end numbers and counts.

    ``throughput`` is work per second, ``p50_ms``/``tail`` the latency of
    the workload's unit of work, ``success`` the share of operations that
    succeeded.  ``attempted``/``failed`` count operations that ran and
    operations that raised or returned an error.  ``raw`` keeps whatever
    the checks and the per-layer pass need.
    """

    throughput: float
    p50_ms: float
    tail: Tail
    success: float
    attempted: int
    failed: int
    raw: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)


#: A run stops repeating its unit of work after this many failures.
MAX_ERRORS = 3


def another(t_end: float, durations: list, errors: list) -> bool:
    """Whether one more repetition of the measured work fits before ``t_end``.

    Always at least one success; never after ``MAX_ERRORS`` failures.
    The next repetition may overrun ``t_end`` by about 30% of the median
    repetition.
    """
    if len(errors) >= MAX_ERRORS:
        return False
    if not durations:
        return True
    return time.perf_counter() + 0.7 * float(np.median(durations)) <= t_end
