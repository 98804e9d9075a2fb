"""Vectorized node kernels: the live pipeline's real work.

A :class:`VectorKernel` is what a pipeline node *is* at runtime: a
callable over an up-to-``v``-row NumPy payload batch that returns, for
every input row, how many output rows it produced (the empirical gain)
plus the concatenated output rows themselves.  The executor threads item
ids alongside payload rows (``np.repeat(ids, counts)``), exactly like
the simulators.

Three real applications are wrapped (the same code paths the ``apps/``
packages use for gain measurement), plus a synthetic spin kernel for
controlled experiments:

- **blast** — mini-BLAST seed filter / seed expander / extension filter
  over a synthetic genome comparison with planted homologies;
- **nids** — header filter / Aho-Corasick content scan / rule evaluation
  over synthetic packet traffic;
- **gamma** — energy filter / trailing-window pair expander /
  coincidence test over a synthetic photon stream.

Because the repository runs on a CPU, a kernel's raw Python time is not
the paper's fixed per-firing service time ``t_i``.  The executor
therefore *pads* each firing to the kernel's ``nominal_service`` —
emulating a SIMD device where a vector firing occupies the node for
``t_i`` regardless of lane occupancy (Section 2.2's model).
:func:`calibrate_service_times` measures each kernel's raw firing times
on representative batches and assigns a nominal service comfortably
above them, so the plan's ``t_i`` are wall-clock-faithful.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.dataflow.gains import EmpiricalGain, GainDistribution
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.des.hotloop import ragged_gather
from repro.errors import SpecError

__all__ = [
    "VectorKernel",
    "SpinKernel",
    "RuntimeWorkload",
    "RuntimePlan",
    "build_workload",
    "measure_runtime_gains",
    "calibrate_service_times",
    "suggest_tau0",
    "plan_runtime",
]

_EMPTY_COUNTS = np.empty(0, dtype=np.int64)


class VectorKernel(ABC):
    """One pipeline stage as a vectorized callable.

    ``fire(payload)`` consumes a batch of payload rows (axis 0 = items)
    and returns ``(counts, outputs)``: ``counts[j]`` is the number of
    output rows produced by input row ``j`` (the per-item gain sample)
    and ``outputs`` holds the ``counts.sum()`` output rows in input
    order.  ``nominal_service`` is the stage's planned wall-clock
    service time ``t_i`` in seconds (set by
    :func:`calibrate_service_times` or explicitly).
    """

    def __init__(self, name: str, nominal_service: float = 0.0) -> None:
        if not name:
            raise SpecError("kernel name must be non-empty")
        self.name = name
        self.nominal_service = float(nominal_service)

    @abstractmethod
    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Process one batch; see the class docstring for the contract."""

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"t={self.nominal_service * 1e3:.3g} ms)"
        )


class SpinKernel(VectorKernel):
    """Synthetic kernel: sampled gains, optional busy-spin raw work.

    The gain distribution is sampled from a private deterministic RNG, so
    a run's fan-out sequence is reproducible per seed.  ``spin_seconds``
    busy-loops that long per firing (raw work visible to calibration);
    by default the kernel returns immediately and the executor's service
    padding provides the timing.
    """

    def __init__(
        self,
        name: str,
        gain: GainDistribution,
        *,
        nominal_service: float = 0.0,
        spin_seconds: float = 0.0,
        seed: int = 0,
    ) -> None:
        super().__init__(name, nominal_service)
        if not isinstance(gain, GainDistribution):
            raise SpecError(
                f"gain must be a GainDistribution, got {type(gain).__name__}"
            )
        self.gain = gain
        self.spin_seconds = float(spin_seconds)
        self._rng = np.random.default_rng(seed)

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        k = len(payload)
        if self.spin_seconds > 0:
            end = time.perf_counter() + self.spin_seconds
            while time.perf_counter() < end:
                pass
        if k == 0:
            return _EMPTY_COUNTS, payload
        counts = np.asarray(self.gain.sample(self._rng, k), dtype=np.int64)
        return counts, np.repeat(payload, counts, axis=0)


# -- mini-BLAST --------------------------------------------------------------


class _BlastSeedFilter(VectorKernel):
    def __init__(self, index, database: np.ndarray, window: int) -> None:
        super().__init__("seed_filter")
        self._index = index
        self._db = database
        self._window = window

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = np.asarray(payload, dtype=np.int64)
        counts = np.fromiter(
            (
                1 if self._index.has_seed(self._db, int(s), self._window) else 0
                for s in starts
            ),
            dtype=np.int64,
            count=starts.size,
        )
        return counts, starts[counts.astype(bool)]


class _BlastSeedExpand(VectorKernel):
    def __init__(self, index, database: np.ndarray, window: int, limit: int) -> None:
        super().__init__("seed_expand")
        self._index = index
        self._db = database
        self._window = window
        self._limit = limit

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        starts = np.asarray(payload, dtype=np.int64)
        counts = np.empty(starts.size, dtype=np.int64)
        rows: list[tuple[int, int]] = []
        for j, s in enumerate(starts):
            seeds = self._index.window_seeds(self._db, int(s), self._window)
            kept = seeds[: self._limit]
            counts[j] = len(kept)
            rows.extend(kept)
        out = np.asarray(rows, dtype=np.int64).reshape(-1, 2)
        return counts, out


class _BlastExtendFilter(VectorKernel):
    def __init__(
        self,
        query: np.ndarray,
        database: np.ndarray,
        k: int,
        score_threshold: int,
        xdrop: int,
    ) -> None:
        super().__init__("extend_filter")
        self._query = query
        self._db = database
        self._k = k
        self._threshold = score_threshold
        self._xdrop = xdrop

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        from repro.apps.blast.extension import ungapped_extend

        pairs = np.asarray(payload, dtype=np.int64).reshape(-1, 2)
        counts = np.empty(len(pairs), dtype=np.int64)
        for j, (qpos, dpos) in enumerate(pairs):
            ext = ungapped_extend(
                self._query,
                self._db,
                int(qpos),
                int(dpos),
                self._k,
                xdrop=self._xdrop,
            )
            counts[j] = 1 if ext.score >= self._threshold else 0
        return counts, pairs[counts.astype(bool)]


# -- NIDS --------------------------------------------------------------------


class _NidsHeaderFilter(VectorKernel):
    def __init__(self, ports: np.ndarray, monitored: np.ndarray) -> None:
        super().__init__("header_filter")
        self._ports = ports
        self._monitored = monitored

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(payload, dtype=np.int64)
        counts = np.isin(self._ports[idx], self._monitored).astype(np.int64)
        return counts, idx[counts.astype(bool)]


class _NidsContentScan(VectorKernel):
    def __init__(self, matcher, payloads: list[bytes], limit: int) -> None:
        super().__init__("content_scan")
        self._matcher = matcher
        self._payloads = payloads
        self._limit = limit

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(payload, dtype=np.int64)
        counts = np.empty(idx.size, dtype=np.int64)
        rows: list[tuple[int, int, int]] = []
        for j, p in enumerate(idx):
            matches = self._matcher.find(self._payloads[int(p)])[: self._limit]
            counts[j] = len(matches)
            rows.extend((int(p), pat, start) for start, pat in matches)
        return counts, np.asarray(rows, dtype=np.int64).reshape(-1, 3)


class _NidsRuleEval(VectorKernel):
    def __init__(
        self,
        ports: np.ndarray,
        rule_ports: np.ndarray,
        rule_max_offsets: np.ndarray,
    ) -> None:
        super().__init__("rule_eval")
        self._ports = ports
        self._rule_ports = rule_ports
        self._rule_max_offsets = rule_max_offsets

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        triples = np.asarray(payload, dtype=np.int64).reshape(-1, 3)
        pkt, pat, start = triples[:, 0], triples[:, 1], triples[:, 2]
        ok = (self._rule_ports[pat] == self._ports[pkt]) & (
            start <= self._rule_max_offsets[pat]
        )
        return ok.astype(np.int64), triples[ok]


# -- gamma -------------------------------------------------------------------


class _GammaEnergyFilter(VectorKernel):
    def __init__(self, energies: np.ndarray, threshold: float) -> None:
        super().__init__("energy_filter")
        self._energies = energies
        self._threshold = threshold

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(payload, dtype=np.int64)
        counts = (self._energies[idx] >= self._threshold).astype(np.int64)
        return counts, idx[counts.astype(bool)]


class _GammaPairExpand(VectorKernel):
    """Trailing-window pair expander over precomputed partner lists.

    The partner sets are a pure function of the preloaded stream (same
    trailing-window/limit logic as
    :func:`repro.apps.gamma.detector.measure_gamma_gains`), precomputed
    once at build time so the kernel's per-firing work is a ragged
    gather.
    """

    def __init__(self, offsets: np.ndarray, flat: np.ndarray) -> None:
        super().__init__("pair_expand")
        self._offsets = offsets
        self._flat = flat

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        idx = np.asarray(payload, dtype=np.int64)
        counts, owners, values = ragged_gather(self._offsets, self._flat, idx)
        pairs = np.empty((owners.size, 2), dtype=np.int64)
        pairs[:, 0] = owners
        pairs[:, 1] = values
        return counts, pairs


class _GammaCoincidence(VectorKernel):
    def __init__(self, x: np.ndarray, y: np.ndarray, radius: float) -> None:
        super().__init__("coincidence")
        self._x = x
        self._y = y
        self._r2 = radius * radius

    def fire(self, payload: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.asarray(payload, dtype=np.int64).reshape(-1, 2)
        i, j = pairs[:, 0], pairs[:, 1]
        d2 = (self._x[i] - self._x[j]) ** 2 + (self._y[i] - self._y[j]) ** 2
        hit = d2 <= self._r2
        return hit.astype(np.int64), pairs[hit]


# -- workloads ---------------------------------------------------------------


@dataclass
class RuntimeWorkload:
    """A runnable live pipeline: kernels plus a stream payload sampler.

    ``sample_payload(n, rng)`` draws ``n`` head-of-pipeline payload rows
    (the live stream's items); kernels may share preloaded reference
    data (genome, packet corpus, photon stream).
    """

    name: str
    kernels: list[VectorKernel]
    sample_payload: Callable[[int, np.random.Generator], np.ndarray]
    detail: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.kernels)


def _blast_workload(seed: int) -> RuntimeWorkload:
    from repro.apps.blast.pipeline import EXPANDER_LIMIT
    from repro.apps.blast.seeding import KmerIndex
    from repro.apps.blast.sequence import plant_homologies, random_dna

    k, window, threshold, xdrop = 10, 32, 24, 12
    rng = np.random.default_rng(seed)
    query = random_dna(1024, rng)
    database = random_dna(50_000, rng)
    database = plant_homologies(
        database, query, 40, rng, fragment_len=64, mutation_rate=0.05
    )
    index = KmerIndex(query, k)
    starts = np.arange(0, database.size - window + 1, window, dtype=np.int64)
    kernels = [
        _BlastSeedFilter(index, database, window),
        _BlastSeedExpand(index, database, window, EXPANDER_LIMIT),
        _BlastExtendFilter(query, database, k, threshold, xdrop),
    ]

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.choice(starts, size=n, replace=True)

    return RuntimeWorkload(
        "blast", kernels, sample, detail={"windows": int(starts.size)}
    )


def _nids_workload(seed: int) -> RuntimeWorkload:
    from repro.apps.nids.aho_corasick import AhoCorasick
    from repro.apps.nids.packets import PacketStreamConfig, synth_packets

    config = PacketStreamConfig()
    rng = np.random.default_rng(seed)
    packets = synth_packets(config, rng)
    rules = config.rules
    matcher = AhoCorasick([r.pattern for r in rules])
    ports = np.asarray([p.port for p in packets], dtype=np.int64)
    monitored = np.asarray(sorted({r.port for r in rules}), dtype=np.int64)
    rule_ports = np.asarray([r.port for r in rules], dtype=np.int64)
    rule_max = np.asarray(
        [
            np.iinfo(np.int64).max if r.max_offset is None else r.max_offset
            for r in rules
        ],
        dtype=np.int64,
    )
    payloads = [p.payload for p in packets]
    kernels = [
        _NidsHeaderFilter(ports, monitored),
        _NidsContentScan(matcher, payloads, limit=16),
        _NidsRuleEval(ports, rule_ports, rule_max),
    ]

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, len(packets), size=n, dtype=np.int64)

    return RuntimeWorkload(
        "nids", kernels, sample, detail={"packets": len(packets)}
    )


def _gamma_workload(seed: int) -> RuntimeWorkload:
    from repro.apps.gamma.photons import PhotonStreamConfig, synth_photon_stream

    energy_threshold, pair_window, pair_limit, radius = 1.8, 5.0, 16, 0.05
    config = PhotonStreamConfig()
    rng = np.random.default_rng(seed)
    events = synth_photon_stream(config, rng)
    n = len(events)
    energies = np.asarray(events["energy"], dtype=float)
    times = np.asarray(events["time"], dtype=float)
    x = np.asarray(events["x"], dtype=float)
    y = np.asarray(events["y"], dtype=float)

    # Same trailing-window pairing as measure_gamma_gains, precomputed.
    offsets = np.zeros(n + 1, dtype=np.int64)
    flat: list[int] = []
    recent: deque[int] = deque()
    for i in range(n):
        if energies[i] >= energy_threshold:
            t = times[i]
            while recent and times[recent[0]] < t - pair_window:
                recent.popleft()
            partners = list(recent)[-pair_limit:]
            flat.extend(partners)
            offsets[i + 1] = offsets[i] + len(partners)
            recent.append(i)
        else:
            offsets[i + 1] = offsets[i]
    kernels = [
        _GammaEnergyFilter(energies, energy_threshold),
        _GammaPairExpand(offsets, np.asarray(flat, dtype=np.int64)),
        _GammaCoincidence(x, y, radius),
    ]

    def sample(k: int, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, n, size=k, dtype=np.int64)

    return RuntimeWorkload("gamma", kernels, sample, detail={"photons": n})


def _synthetic_workload(seed: int) -> RuntimeWorkload:
    from repro.dataflow.gains import BernoulliGain, CensoredPoissonGain

    kernels = [
        SpinKernel("filter", BernoulliGain(0.5), seed=seed),
        SpinKernel("expand", CensoredPoissonGain(2.0, 8), seed=seed + 1),
        SpinKernel("score", BernoulliGain(0.3), seed=seed + 2),
    ]

    def sample(n: int, rng: np.random.Generator) -> np.ndarray:
        return rng.standard_normal(n)

    return RuntimeWorkload("synthetic", kernels, sample)


_WORKLOADS = {
    "blast": _blast_workload,
    "nids": _nids_workload,
    "gamma": _gamma_workload,
    "synthetic": _synthetic_workload,
}


def build_workload(app: str, *, seed: int = 0) -> RuntimeWorkload:
    """Build a named live workload: blast, nids, gamma, or synthetic."""
    try:
        factory = _WORKLOADS[app]
    except KeyError as exc:
        known = ", ".join(sorted(_WORKLOADS))
        raise SpecError(f"unknown app {app!r}; known: {known}") from exc
    return factory(seed)


# -- offline measurement & planning ------------------------------------------


def measure_runtime_gains(
    workload: RuntimeWorkload,
    *,
    n_items: int = 512,
    vector_width: int = 8,
    seed: int = 0,
) -> list[EmpiricalGain]:
    """Feed items through the kernel chain offline, recording stage gains.

    Returns one :class:`~repro.dataflow.gains.EmpiricalGain` per stage
    (the runtime analogue of the apps' ``trace_gains`` measurement — the
    counts come from the same kernels the executor fires).
    """
    if n_items < 1:
        raise SpecError(f"n_items must be >= 1, got {n_items}")
    rng = np.random.default_rng(seed)
    batch = workload.sample_payload(n_items, rng)
    stage_counts: list[list[int]] = [[] for _ in workload.kernels]
    for start in range(0, n_items, vector_width):
        payload = batch[start : start + vector_width]
        for i, kern in enumerate(workload.kernels):
            if len(payload) == 0:
                break
            counts, payload = kern.fire(payload)
            stage_counts[i].extend(counts.tolist())
    dists = []
    for i, counts in enumerate(stage_counts):
        if not counts:
            raise SpecError(
                f"stage {i} ({workload.kernels[i].name}) saw no items; "
                "enlarge n_items"
            )
        dists.append(EmpiricalGain(np.asarray(counts, dtype=np.int64)))
    return dists


def calibrate_service_times(
    workload: RuntimeWorkload,
    *,
    vector_width: int = 8,
    rounds: int = 5,
    floor: float = 0.005,
    margin: float = 1.5,
    seed: int = 0,
) -> np.ndarray:
    """Measure raw kernel firing times and assign nominal services.

    Each stage's nominal service becomes ``max(floor, margin *
    max_observed_raw)`` — comfortably above the raw Python time, so the
    executor's padding (not Python jitter) defines the firing duration
    and the plan's ``t_i`` hold on the wall clock.  The measured values
    are written to each kernel's ``nominal_service`` and returned.
    Kernels that already carry a positive ``nominal_service`` keep it
    (explicit settings are calibration overrides).
    """
    if rounds < 1:
        raise SpecError(f"rounds must be >= 1, got {rounds}")
    rng = np.random.default_rng(seed)
    worst = np.zeros(workload.n_nodes)
    for _ in range(rounds):
        payload = workload.sample_payload(vector_width, rng)
        for i, kern in enumerate(workload.kernels):
            if len(payload) == 0:
                break
            t0 = time.perf_counter()
            _counts, payload = kern.fire(payload)
            worst[i] = max(worst[i], time.perf_counter() - t0)
    nominal = np.maximum(floor, margin * worst)
    for i, (kern, t) in enumerate(zip(workload.kernels, nominal)):
        if kern.nominal_service > 0:
            nominal[i] = kern.nominal_service
        else:
            kern.nominal_service = float(t)
    return nominal


def suggest_tau0(
    pipeline: PipelineSpec, *, utilization: float = 0.7
) -> float:
    """Head inter-arrival time loading the bottleneck node to ``utilization``.

    Node ``i`` sees ``C_i = prod_{j<i} g_j`` items per head item and can
    process at most ``v / t_i`` items per second, so the sustainable head
    rate is ``min_i v / (t_i * C_i)``; the suggested ``tau0`` backs off
    from that by the utilization factor.
    """
    if not 0 < utilization < 1:
        raise SpecError(
            f"utilization must be in (0, 1), got {utilization}"
        )
    t = pipeline.service_times
    g = pipeline.mean_gains
    upstream = np.concatenate(([1.0], np.cumprod(g[:-1])))
    rates = pipeline.vector_width / (t * np.maximum(upstream, 1e-9))
    return float(1.0 / (utilization * rates.min()))


@dataclass
class RuntimePlan:
    """A planned live run: the spec in seconds plus the solved waits."""

    workload: RuntimeWorkload
    pipeline: PipelineSpec
    problem: "object"
    outcome: "object"
    b: np.ndarray

    @property
    def waits(self) -> np.ndarray:
        return self.outcome.solution.waits

    @property
    def planned_active_fraction(self) -> float:
        return self.outcome.solution.active_fraction

    @property
    def feasible(self) -> bool:
        return self.outcome.solution.feasible


def plan_runtime(
    workload: RuntimeWorkload,
    *,
    vector_width: int,
    tau0: float | None = None,
    deadline: float | None = None,
    utilization: float = 0.7,
    deadline_factor: float = 4.0,
    b: np.ndarray | None = None,
    calibrate_b: bool = True,
    calibrate_trials: int = 6,
    calibrate_items: int = 1500,
    cache=None,
    method: str = "auto",
    n_gain_items: int = 2048,
    service_floor: float = 0.005,
    service_margin: float = 1.5,
    calibration_rounds: int = 5,
    seed: int = 0,
) -> RuntimePlan:
    """Calibrate a workload and solve its enforced-waits plan in seconds.

    ``tau0`` and ``deadline`` are wall-clock seconds.  When ``tau0`` is
    None it is derived from the measured pipeline via
    :func:`suggest_tau0`; when ``deadline`` is None it starts at
    ``deadline_factor * sum(b_i * t_i)`` and doubles until the plan is
    feasible (at most 4 retries).  Gains are measured empirically from
    the kernels; service times from :func:`calibrate_service_times`
    (kernels with a positive ``nominal_service`` already set keep it).

    With ``calibrate_b=True`` (default) and no explicit ``b``, the
    queue-depth multipliers are calibrated through the discrete-event
    simulator (:func:`repro.core.calibration.calibrate_enforced_b`, the
    paper's Section 6.2 raise-and-retry loop) at the chosen operating
    point — virtual time is cheap, and the optimistic ``ceil(g)`` values
    systematically under-cover live queueing: the solver pushes every
    period to its chain/head upper bound, so queues run near critical
    load by design and the deadline budget must absorb the real depths.

    The solve goes through :func:`repro.planning.warmstart.solve_plan`,
    so repeated plans hit the cache.
    """
    from repro.core.calibration import calibrate_enforced_b
    from repro.core.enforced_waits import optimistic_b
    from repro.core.model import RealTimeProblem
    from repro.errors import CalibrationError
    from repro.planning.warmstart import solve_plan

    dists = measure_runtime_gains(
        workload, n_items=n_gain_items, vector_width=vector_width, seed=seed
    )
    if any(k.nominal_service <= 0 for k in workload.kernels):
        calibrate_service_times(
            workload,
            vector_width=vector_width,
            rounds=calibration_rounds,
            floor=service_floor,
            margin=service_margin,
            seed=seed,
        )
    nodes = tuple(
        NodeSpec(kern.name, kern.nominal_service, dist)
        for kern, dist in zip(workload.kernels, dists)
    )
    pipeline = PipelineSpec(nodes, vector_width)
    if tau0 is None:
        tau0 = suggest_tau0(pipeline, utilization=utilization)
    auto_deadline = deadline is None
    if auto_deadline:
        deadline = deadline_factor * float(
            np.sum(optimistic_b(pipeline) * pipeline.service_times)
        )
    retries = 4 if auto_deadline else 0
    while True:
        b_used = (
            optimistic_b(pipeline) if b is None else np.asarray(b, dtype=float)
        )
        calibration_failed = False
        if b is None and calibrate_b:
            try:
                b_used = calibrate_enforced_b(
                    pipeline,
                    np.asarray([tau0]),
                    np.asarray([deadline]),
                    n_trials=calibrate_trials,
                    n_items=calibrate_items,
                    seed_base=seed,
                ).b
            except CalibrationError as exc:
                if getattr(exc, "outcome", None) is not None:
                    raise  # a trial failed: a fault, not non-convergence
                calibration_failed = True
        problem = RealTimeProblem(pipeline, tau0, deadline)
        outcome = solve_plan(problem, b_used, method=method, cache=cache)
        if (
            outcome.solution.feasible
            and not calibration_failed
        ) or retries <= 0:
            break
        retries -= 1
        deadline *= 2.0
    return RuntimePlan(
        workload=workload,
        pipeline=pipeline,
        problem=problem,
        outcome=outcome,
        b=b_used,
    )
