"""SIMD device model.

Models the paper's implementation target (Section 2.2): a single-threaded
processor with ``v``-wide SIMD vector operations, where each pipeline node
is allotted a fixed ``1/N`` fraction of processor time and fires on vectors
of up to ``v`` items in fixed service time ``t_i``.

- :class:`~repro.simd.device.SimdDevice` — device parameters and per-firing
  cost accounting.
- :mod:`~repro.simd.lanes` — lane assignment/compaction arithmetic (how many
  vector firings a batch of items needs, occupancy of each).
- :class:`~repro.simd.occupancy.OccupancyTracker` — lane-occupancy and
  active-time statistics.
- :mod:`~repro.simd.sharing` — timing models: the paper's idealized
  fine-grained 1/N sharing, and a work-conserving generalized-processor-
  sharing (GPS) model used as an ablation of that idealization.
"""

from repro.simd.backend import Backend, get_backend, use_backend
from repro.simd.device import SimdDevice
from repro.simd.lanes import (
    lane_occupancies,
    split_into_vectors,
    vectors_needed,
)
from repro.simd.occupancy import OccupancyTracker
from repro.simd.sharing import (
    GpsProcessor,
    IdealizedSharing,
    TimingModel,
    WorkConservingSharing,
)

__all__ = [
    "Backend",
    "get_backend",
    "use_backend",
    "SimdDevice",
    "vectors_needed",
    "split_into_vectors",
    "lane_occupancies",
    "OccupancyTracker",
    "TimingModel",
    "IdealizedSharing",
    "WorkConservingSharing",
    "GpsProcessor",
]
