"""Pure helpers the workloads share: percentiles, capacity, overhead, spans.

Everything here is deterministic arithmetic on numbers the workloads
measured, so ``perfbench/test_stats.py`` can pin it without running the
program.
"""

from __future__ import annotations

import contextlib
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

#: Percentiles the tail rule may choose from, highest last.
TAIL_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.999)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """A tail latency: the percentile chosen, its value and sample counts."""

    q: float
    value: float
    n: int
    beyond: int


def beyond(n: int, q: float) -> int:
    """Samples of ``n`` that lie beyond the ``q`` quantile."""
    return n - int(np.ceil(q * n - 1e-9))


def tail_q(n: int) -> float | None:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond.

    None when ``n`` is too small for any percentile on the ladder.
    """
    best = None
    for q in TAIL_LADDER:
        if beyond(n, q) >= MIN_BEYOND:
            best = q
    return best


def tail(samples) -> Tail:
    """The tail rule: the highest percentile with ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the
    maximum is reported instead (``q == 1.0``, nothing beyond).
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("tail of no samples")
    q = tail_q(int(x.size))
    if q is None:
        return Tail(1.0, float(x.max()), int(x.size), 0)
    return Tail(q, float(np.quantile(x, q)), int(x.size), beyond(int(x.size), q))


def median(samples) -> float:
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("median of no samples")
    return float(np.median(x))


def non_increasing(values) -> np.ndarray:
    """Least-squares non-increasing fit (pool adjacent violators).

    A run of values that rises is replaced by its mean, repeatedly,
    until the sequence never rises.
    """
    blocks: list[list[float]] = []  # [mean, count]
    for v in np.asarray(values, dtype=float):
        blocks.append([float(v), 1.0])
        while len(blocks) > 1 and blocks[-2][0] < blocks[-1][0]:
            m2, c2 = blocks.pop()
            m1, c1 = blocks.pop()
            blocks.append([(m1 * c1 + m2 * c2) / (c1 + c2), c1 + c2])
    return np.concatenate([np.full(int(c), m) for m, c in blocks])


def capacity(rates, shares, *, threshold: float = 0.5) -> tuple[float, bool]:
    """Highest sustained scheduled rate on a load ladder.

    ``rates`` are the rungs' scheduled rates in increasing order and
    ``shares`` the fraction of each rung's segments that were sustained.
    Shares are first fitted non-increasing in the rate (a rung that does
    better than one below it is pooled with it), then the rate where the
    fitted share drops below ``threshold`` is interpolated linearly
    between the rungs around the crossing; below the first rung the line
    runs from ``(0, 1)``.  Returns ``(rate, censored)``: ``censored`` is
    True when even the top rung is sustained, so the capacity is at
    least the returned rate.
    """
    r = np.asarray(rates, dtype=float)
    if r.size == 0 or r.size != len(shares):
        raise ValueError("rates and shares must be non-empty and aligned")
    if np.any(np.diff(r) <= 0):
        raise ValueError("rates must increase")
    s = non_increasing(shares)
    prev_r, prev_s = 0.0, 1.0
    for rk, sk in zip(r, s):
        if sk < threshold:
            frac = (prev_s - threshold) / (prev_s - sk)
            return float(prev_r + frac * (rk - prev_r)), False
        prev_r, prev_s = float(rk), float(sk)
    return float(r[-1]), True


def campaign_overhead(wall_s: float, solve_s: float, trial_s: float,
                      workers: int) -> float:
    """Campaign time not spent solving or simulating.

    ``wall - (sum of solve + sum of trial) / workers``: the supervisor,
    process start-up and scheduling left over once the solves and trials
    the campaign needed are spread ideally over its workers.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return wall_s - (solve_s + trial_s) / workers


# -- tracing ------------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """One timed call into a layer; ``name`` is ``layer:operation``."""

    id: int
    parent: int | None
    name: str
    request: str | None
    start: float
    end: float

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part its children cover.

    Children may overlap each other (two client threads under one
    parent); their union is subtracted, clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for sp in spans:
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)
    out = {}
    for sp in spans:
        covered = 0.0
        cur_start = cur_end = None
        for c in sorted(children.get(sp.id, ()), key=lambda c: c.start):
            a, b = max(c.start, sp.start), min(c.end, sp.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[sp.id] = (sp.end - sp.start) - covered
    return out


def self_time_by_layer(spans) -> dict[str, float]:
    """Self time summed per layer, in seconds."""
    st = self_times(spans)
    out: dict[str, float] = {}
    for sp in spans:
        out[sp.layer] = out.get(sp.layer, 0.0) + st[sp.id]
    return out


class Tracer:
    """Keeps spans in memory around the benchmark's calls into each layer.

    A disabled tracer hands out one shared no-op context, so untraced
    runs pay a method call per boundary and record nothing.  Parents are
    tracked per thread, so concurrent client threads nest correctly.
    """

    _NULL = contextlib.nullcontext()

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def span(self, name: str, request: str | None = None):
        if not self.enabled:
            return self._NULL
        return self._record(name, request)

    @contextlib.contextmanager
    def _record(self, name: str, request: str | None):
        stack = self._local.__dict__.setdefault("stack", [])
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent, name, request, start, end))
