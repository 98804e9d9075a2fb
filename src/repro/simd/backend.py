"""Execution-backend selection: may the closed-form fast path run?

The simulators keep a *pure-Python event-loop* path as the semantic
reference; under idealized timing they can instead take the closed-form
fast path (:mod:`repro.sim.fastpath`), built on the NumPy kernels of
:mod:`repro.des.hotloop`.  This module holds the one switch between them:

- ``"vector"`` (default) — the fast path runs wherever it applies.
- ``"python"`` — disable it and run the per-event reference loops.
  Exists so the fallback path can be forced (CI runs the whole suite
  under it) and so bit-identity of fast vs. slow paths stays testable
  (pinned by ``tests/test_sim_equivalence.py``).

Selection happens lazily at first use from the ``REPRO_BACKEND``
environment variable; :func:`use_backend` overrides it for a block.
Any other name raises :class:`~repro.errors.SpecError`.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from repro.errors import SpecError

__all__ = ["Backend", "get_backend", "use_backend"]

#: Names accepted by ``REPRO_BACKEND`` / :func:`use_backend`.
_CHOICES = ("vector", "python")


@dataclass(frozen=True)
class Backend:
    """The active execution backend: ``"vector"`` or ``"python"``."""

    name: str

    @property
    def fastpath(self) -> bool:
        """Whether the closed-form fast path may replace the event loop."""
        return self.name != "python"


_active: Backend | None = None


def _resolve(name: str) -> Backend:
    if name not in _CHOICES:
        raise SpecError(f"REPRO_BACKEND must be one of {_CHOICES}, got {name!r}")
    return Backend(name)


def get_backend() -> Backend:
    """The active backend, resolving ``REPRO_BACKEND`` on first call."""
    global _active
    if _active is None:
        _active = _resolve(os.environ.get("REPRO_BACKEND", "vector").lower())
    return _active


@contextmanager
def use_backend(name: str):
    """Context manager: temporarily select ``name``, then restore."""
    global _active
    previous = _active
    _active = _resolve(name)
    try:
        yield _active
    finally:
        _active = previous
