"""NumPy primitives of the DES/kernel hot loops.

Three small kernels carry most of the per-event work of the
enforced-waits simulator and the runtime app kernels:

- :func:`firing_schedule` — a node's firing-start and completion times.
  Under idealized timing the event loop computes the strict recurrence
  ``c_k = f_k + t``, ``f_{k+1} = c_k + w`` one float add at a time;
  ``np.add.accumulate`` over the interleaved step array ``[f0, t, w, t,
  w, ...]`` performs *the same adds in the same order*, so the arrays
  are bit-identical to the loop — not merely close.
- :func:`consumed_scan` — cumulative items consumed by a width-``v``
  node given how many inputs are available at each firing.  The queue
  recurrence ``C_k = C_{k-1} + min(v, A_k - C_{k-1})`` has the closed
  form ``C_k = min(v*(k+1), v*k + min_{j<=k}(A_j - v*j))`` (a Lindley
  recursion), evaluated with one ``np.minimum.accumulate`` in exact
  int64 arithmetic.
- :func:`ragged_gather` — gather variable-length segments
  ``flat[offsets[i]:offsets[i+1]]`` for a batch of indices (the runtime
  pair-expansion kernels' inner loop).

Each primitive is pinned against the literal per-item loop it replaces
(``tests/test_backend_fastpath.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["firing_schedule", "consumed_scan", "ragged_gather"]


def firing_schedule(
    f0: float, t: float, w: float, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """First ``k`` firing starts and completions of one node.

    ``fires[0] = f0``; ``comps[i] = fires[i] + t``;
    ``fires[i+1] = comps[i] + w``.  Bit-identical to the event loop's
    one-add-at-a-time recurrence (see module docstring).
    """
    if k <= 0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty.copy()
    steps = np.empty(2 * int(k), dtype=np.float64)
    steps[0] = f0
    steps[1::2] = t
    steps[2::2] = w
    acc = np.add.accumulate(steps)
    return np.ascontiguousarray(acc[0::2]), np.ascontiguousarray(acc[1::2])


def consumed_scan(avail: np.ndarray, v: int) -> np.ndarray:
    """Cumulative consumption ``C_k`` of a width-``v`` node.

    ``avail[k]`` is the number of inputs that have *ever* been available
    by firing ``k`` (a nondecreasing int64 array); the node pops
    ``min(v, avail[k] - C_{k-1})`` at each firing.
    """
    avail = np.ascontiguousarray(avail, dtype=np.int64)
    if avail.size == 0:
        return np.empty(0, dtype=np.int64)
    v = int(v)
    idx = np.arange(avail.shape[0], dtype=np.int64)
    slack = np.minimum.accumulate(avail - v * idx)
    return np.minimum(v * (idx + 1), v * idx + slack)


def ragged_gather(
    offsets: np.ndarray, flat: np.ndarray, idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gather segments ``flat[offsets[i]:offsets[i+1]]`` for ``i`` in ``idx``.

    Returns ``(counts, owners, values)``: per-index segment lengths, the
    index repeated per element, and the concatenated segment values —
    the vectorized form of the append-per-item loop the runtime
    pair-expansion kernels previously ran.
    """
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    idx = np.ascontiguousarray(idx, dtype=np.int64)
    begins = offsets[idx]
    counts = offsets[idx + 1] - begins
    owners = np.repeat(idx, counts)
    total = int(counts.sum())
    if total == 0:
        pos = np.empty(0, dtype=np.int64)
    else:
        seg_starts = np.repeat(np.cumsum(counts) - counts, counts)
        pos = np.arange(total, dtype=np.int64) - seg_starts + np.repeat(
            begins, counts
        )
    values = np.asarray(flat)[pos]
    return counts, owners, values
