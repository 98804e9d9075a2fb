"""Per-run simulation metrics.

:class:`LatencyLedger` tracks every pipeline *output* against its origin
item's deadline; :class:`SimMetrics` aggregates one run's results in the
terms the paper reports: active fraction, deadline misses (counted per
origin item, as in "the number of inputs incurring a miss"), and queue
high-water marks in units of the SIMD width (the empirical ``b_i``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.des.monitors import Accumulator

__all__ = ["LatencyLedger", "SimMetrics"]


class LatencyLedger:
    """Records output exits and scores deadline misses per origin item.

    An origin item "misses" if *any* of its outputs exits after
    ``origin + deadline`` (Section 2.3).

    Item identity
    -------------
    The arrival contract (:meth:`repro.arrivals.base.ArrivalProcess.generate`)
    is *nondecreasing* times — ties are allowed, and trace replays of real
    instruments produce them routinely.  A bare origin timestamp is
    therefore **not** a usable item identity: keying on it collapses
    distinct tied-arrival items, undercounting ``missed_items`` and
    ``items_with_output``.  Callers that can identify items (the
    simulators thread integer item ids through their queues) should pass
    ``ids`` to :meth:`record_exits` / ``item_id`` to :meth:`record_exit`;
    the ledger then keys its per-item sets on the id.  Without ids it
    falls back to the origin timestamp (correct only for strictly
    increasing streams).

    :meth:`record_exits` is vectorized: latencies and deadline
    comparisons are array operations, and the latency accumulator uses
    :meth:`~repro.des.monitors.Accumulator.add_many`, which is
    bit-identical to the per-output path.
    """

    def __init__(self, deadline: float, *, keep_samples: bool = False) -> None:
        if not deadline > 0:  # also rejects NaN; inf means no deadline
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.deadline = deadline
        # Precomputed once; identical to the historical per-call
        # expression ``deadline * (1 + 1e-12)``.
        self._late_threshold = deadline * (1 + 1e-12)
        self.latency = Accumulator("latency", keep_samples=keep_samples)
        self._missed_keys: set = set()
        self._exited_keys: set = set()
        self._dropped_keys: set = set()
        self._outputs = 0
        self._late_outputs = 0
        self._dropped_outputs = 0

    @property
    def outputs(self) -> int:
        """Total pipeline outputs recorded."""
        return self._outputs

    @property
    def late_outputs(self) -> int:
        return self._late_outputs

    @property
    def missed_items(self) -> int:
        """Origin items with at least one late output."""
        return len(self._missed_keys)

    @property
    def items_with_output(self) -> int:
        return len(self._exited_keys)

    @property
    def dropped_outputs(self) -> int:
        """In-flight tokens shed by a queue overflow policy (never exited)."""
        return self._dropped_outputs

    @property
    def dropped_items(self) -> int:
        """Origin items that lost at least one token to shedding."""
        return len(self._dropped_keys)

    def record_drops(
        self, ids: np.ndarray | None = None, *, origins: np.ndarray | None = None
    ) -> None:
        """Account shed in-flight tokens as deadline misses.

        A shed token never reaches the pipeline tail, so its origin item
        can never satisfy "every output exits by ``origin + D``" — the
        item is scored as missed immediately (it joins
        :attr:`missed_items` and therefore :meth:`miss_rate`), without
        contributing a latency sample or an output count.  Identity
        follows the same rules as :meth:`record_exits`: pass integer
        ``ids`` when available, ``origins`` only as the tied-timestamp
        fallback.
        """
        keys = ids if ids is not None else origins
        if keys is None:
            raise ValueError("record_drops needs ids or origins")
        keys = np.asarray(keys)
        n = int(keys.size)
        if n == 0:
            return
        self._dropped_outputs += n
        key_list = keys.tolist()
        self._dropped_keys.update(key_list)
        self._missed_keys.update(key_list)

    def record_exit(
        self, origin: float, exit_time: float, *, item_id: int | None = None
    ) -> None:
        """Record one output exiting the pipeline tail.

        ``item_id``, when given, is the identity key for per-item miss
        accounting; otherwise the origin timestamp is used (see the class
        docstring for the tied-timestamp caveat).
        """
        lat = exit_time - origin
        if lat < 0:
            raise ValueError(
                f"output exits before its origin (origin={origin}, "
                f"exit={exit_time})"
            )
        self.latency.add(lat)
        self._outputs += 1
        key = origin if item_id is None else item_id
        self._exited_keys.add(key)
        if lat > self._late_threshold:
            self._late_outputs += 1
            self._missed_keys.add(key)

    def record_exits(
        self,
        origins: np.ndarray,
        exit_time: float,
        *,
        ids: np.ndarray | None = None,
    ) -> None:
        """Record a batch of outputs exiting at ``exit_time`` (vectorized).

        ``origins`` are the outputs' origin timestamps; ``ids``, when
        given, are the matching integer item ids used as identity keys.
        """
        origins = np.asarray(origins, dtype=float)
        n = int(origins.size)
        if n == 0:
            return
        if n <= 16:
            # Tiny batches (the enforced simulator's tail exits a few
            # outputs per firing): per-element numpy overhead exceeds
            # the scalar path, which is bit-identical by definition.
            record = self.record_exit
            if ids is None:
                for o in origins.tolist():
                    record(o, exit_time)
            else:
                for o, i in zip(origins.tolist(), np.asarray(ids).tolist()):
                    record(o, exit_time, item_id=i)
            return
        lats = exit_time - origins
        if lats.min() < 0:
            bad = origins[lats < 0][0]
            raise ValueError(
                f"output exits before its origin (origin={bad}, "
                f"exit={exit_time})"
            )
        self.latency.add_many(lats)
        self._outputs += n
        keys = origins if ids is None else np.asarray(ids)
        self._exited_keys.update(keys.tolist())
        late = lats > self._late_threshold
        n_late = int(np.count_nonzero(late))
        if n_late:
            self._late_outputs += n_late
            self._missed_keys.update(keys[late].tolist())

    def record_exit_stream(
        self,
        origins: np.ndarray,
        exit_times: np.ndarray,
        *,
        ids: np.ndarray | None = None,
    ) -> None:
        """Record a whole run's outputs with *per-output* exit times.

        The simulator fast path materializes every tail exit of a run as
        aligned ``(origin, exit_time, id)`` arrays in exit order; this
        records them in one shot.  Bit-identical to the per-completion
        :meth:`record_exits` sequence it replaces:
        :meth:`~repro.des.monitors.Accumulator.add_many` equals repeated
        ``add`` under any batching, the late test is elementwise, and
        the key sets are order-insensitive.
        """
        origins = np.asarray(origins, dtype=float)
        exits = np.asarray(exit_times, dtype=float)
        if origins.shape != exits.shape:
            raise ValueError(
                f"origins and exit_times must align, got shapes "
                f"{origins.shape} and {exits.shape}"
            )
        n = int(origins.size)
        if n == 0:
            return
        lats = exits - origins
        if lats.min() < 0:
            bad = int(np.argmin(lats))
            raise ValueError(
                f"output exits before its origin (origin={origins[bad]}, "
                f"exit={exits[bad]})"
            )
        self.latency.add_many(lats)
        self._outputs += n
        keys = origins if ids is None else np.asarray(ids)
        self._exited_keys.update(keys.tolist())
        late = lats > self._late_threshold
        n_late = int(np.count_nonzero(late))
        if n_late:
            self._late_outputs += n_late
            self._missed_keys.update(keys[late].tolist())

    def miss_rate(self, n_items: int) -> float:
        """Fraction of stream items that missed (paper: '< 1% of inputs')."""
        if n_items <= 0:
            return math.nan
        return self.missed_items / n_items


@dataclass
class SimMetrics:
    """Aggregated results of one simulation run.

    Attributes
    ----------
    strategy:
        ``"enforced"`` or ``"monolithic"``.
    n_items:
        Stream length offered to the pipeline.
    makespan:
        Virtual time from 0 to the last pipeline activity.
    active_time_per_node:
        Charged active time per node (single entry for monolithic, which
        schedules the pipeline as a unit).
    active_fraction:
        The paper's objective, measured:
        ``sum_i active_i / (n_slots * makespan)`` where ``n_slots`` is N
        for enforced waits (each node owns a 1/N share) and 1 for the
        monolithic pipeline.
    missed_items / miss_rate:
        Items with any late output, and their fraction of the stream.
    mean_latency / max_latency:
        Over all pipeline outputs.
    queue_hwm_vectors:
        Per-node input-queue high-water mark divided by v (empirical b_i).
    firings / empty_firings / mean_occupancy:
        Per-node firing statistics.
    """

    strategy: str
    n_items: int
    makespan: float
    active_time_per_node: np.ndarray
    active_fraction: float
    missed_items: int
    miss_rate: float
    outputs: int
    mean_latency: float
    max_latency: float
    queue_hwm_vectors: np.ndarray
    firings: np.ndarray
    empty_firings: np.ndarray
    mean_occupancy: np.ndarray
    extra: dict = field(default_factory=dict)

    @property
    def miss_free(self) -> bool:
        """True when no item missed its deadline (paper's per-run pass)."""
        return self.missed_items == 0
