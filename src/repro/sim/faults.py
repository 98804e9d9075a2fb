"""Deterministic fault injection for campaign hardening tests.

The fault-tolerant campaign runner (:mod:`repro.sim.campaign`) promises
to survive crashing, hanging, and transiently-failing trials.  Promises
about failure paths are worthless untested, and real simulators fail
rarely and nondeterministically — so this module provides a *hook* that
makes trials fail on demand, deterministically, per seed.

A :class:`FaultPlan` is a picklable value object passed to the runner;
before each trial attempt it calls :meth:`FaultPlan.apply` with
the trial's seed and (1-based) attempt number, which either returns
normally, raises :class:`InjectedFault` (a "crash"), or sleeps (a
"hang", which the runner reaps via its per-trial timeout).

Fault kinds
-----------
- ``crash_seeds`` — every attempt for these seeds raises.
- ``hang_seeds`` — every attempt for these seeds sleeps ``hang_seconds``
  (far longer than any sane per-trial timeout).
- ``transient_crashes`` — maps seed to a number of *initial* failing
  attempts; attempt ``k`` raises while ``k <= transient_crashes[seed]``
  and succeeds afterwards.  This is how retry-with-backoff is exercised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ReproError

__all__ = ["InjectedFault", "FaultPlan"]


class InjectedFault(ReproError):
    """Raised by :meth:`FaultPlan.apply` to simulate a crashing trial."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of per-seed trial failures.

    All fields are plain values so the plan pickles to worker processes.
    """

    crash_seeds: tuple[int, ...] = ()
    hang_seeds: tuple[int, ...] = ()
    transient_crashes: Mapping[int, int] = field(default_factory=dict)
    hang_seconds: float = 3600.0
    message: str = "injected fault"

    def __post_init__(self) -> None:
        if self.hang_seconds <= 0:
            raise ValueError(
                f"hang_seconds must be > 0, got {self.hang_seconds}"
            )
        for seed, n in self.transient_crashes.items():
            if n < 1:
                raise ValueError(
                    f"transient_crashes[{seed}] must be >= 1, got {n}"
                )

    def apply(self, seed: int, attempt: int = 1) -> None:
        """Inject this plan's fault for ``seed`` on attempt ``attempt``.

        Called by the campaign runner immediately before constructing
        the simulator.  Raises :class:`InjectedFault` for (still-)failing
        attempts, sleeps for hanging seeds, and is a no-op otherwise.
        """
        if seed in self.crash_seeds:
            raise InjectedFault(
                f"{self.message} (seed {seed}, attempt {attempt}: crash)"
            )
        failing = self.transient_crashes.get(seed, 0)
        if attempt <= failing:
            raise InjectedFault(
                f"{self.message} (seed {seed}, attempt {attempt} of "
                f"{failing} transient failures)"
            )
        if seed in self.hang_seeds:
            self._hang()

    def _hang(self) -> None:
        """Sleep ``hang_seconds`` in small interruptible increments.

        A single ``time.sleep(3600)`` blocks the worker in one
        uninterruptible syscall: signals delivered to the process (and
        thread-based cancellation checks) wait for the full duration.
        Sleeping in short slices keeps the hang reapable — the
        supervised runner's timeout, a KeyboardInterrupt, or a test
        harness can all cut in at the next slice boundary.
        """
        deadline = time.monotonic() + self.hang_seconds
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            time.sleep(min(0.1, remaining))
