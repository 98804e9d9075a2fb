"""The DES event loop and virtual clock."""

from __future__ import annotations

import heapq
import math
import time
from typing import Any, Callable

from repro.des.events import Event, EventHandle
from repro.errors import SimulationError

__all__ = ["Engine"]


class Engine:
    """Discrete-event simulation engine.

    The engine owns a virtual clock (``now``) and a binary-heap event
    queue.  Callbacks scheduled with :meth:`schedule` run in
    nondecreasing time order; ties break by ``priority`` then scheduling
    order, so execution is fully deterministic.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(5.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [5.0]
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[Event] = []
        self._seq = 0
        self._events_processed = 0
        self._running = False
        self._wall_time = 0.0

    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events."""
        return sum(1 for e in self._queue if not e.cancelled)

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far."""
        return self._events_processed

    @property
    def wall_time(self) -> float:
        """Wall-clock seconds spent inside :meth:`run` so far."""
        return self._wall_time

    def schedule(
        self,
        time: float,
        fn: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn`` to run at virtual time ``time``.

        ``time`` must not precede the current clock (no time travel).
        Returns a handle usable to cancel the event.
        """
        if math.isnan(time):
            raise SimulationError("cannot schedule an event at time NaN")
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = Event(time=time, priority=priority, seq=self._seq, fn=fn)
        self._seq += 1
        heapq.heappush(self._queue, event)
        return EventHandle(event)

    def schedule_after(
        self,
        delay: float,
        fn: Callable[[], Any],
        *,
        priority: int = 0,
    ) -> EventHandle:
        """Schedule ``fn`` to run ``delay`` time units from now (delay >= 0)."""
        if delay < 0:
            raise SimulationError(f"delay must be >= 0, got {delay}")
        return self.schedule(self._now + delay, fn, priority=priority)

    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_processed += 1
            event.fn()
            return True
        return False

    def run(
        self,
        *,
        until: float | None = None,
        max_events: int | None = None,
    ) -> None:
        """Run the event loop.

        Parameters
        ----------
        until:
            Stop once the next event would fire strictly after this time;
            the clock is advanced to ``until``.  ``None`` runs to exhaustion;
            NaN raises :class:`SimulationError`.
        max_events:
            Safety valve: raise :class:`SimulationError` after this many
            callbacks (guards against runaway self-scheduling processes).
        """
        if until is not None and math.isnan(until):
            raise SimulationError("cannot run until time NaN")
        if self._running:
            raise SimulationError("Engine.run is not reentrant")
        self._running = True
        budget = math.inf if max_events is None else max_events
        wall_start = time.perf_counter()
        # The loop body is inlined (rather than delegating to step(),
        # which would re-scan past cancelled events) and hoists the heap
        # and heappop: this loop is the simulator's innermost hot path.
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                top = queue[0]
                if top.cancelled:
                    pop(queue)
                    continue
                if until is not None and top.time > until:
                    break
                if self._events_processed >= budget:
                    raise SimulationError(
                        f"event budget of {max_events} exhausted at t={self._now}"
                    )
                pop(queue)
                self._now = top.time
                self._events_processed += 1
                top.fn()
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._wall_time += time.perf_counter() - wall_start
            self._running = False

    def clear(self) -> None:
        """Cancel all pending events (the clock is left unchanged)."""
        for event in self._queue:
            event.cancelled = True
        self._queue.clear()
