"""DES-level multi-tenant mode: K pipelines on one virtual timeline.

The live :class:`~repro.tenancy.executor.MultiPipelineExecutor` shares a
real device; this module shares a *simulated* one, so QoS properties —
gold stays miss-free under 2x overload, best-effort degrades first,
device-time ledgers conserve — are checkable in milliseconds without
wall-clock time or thread scheduling noise.

Contention model
----------------

Each tenant's certified demand is the active fraction implied by its
enforced waits, ``AF = (1/N) sum t_i / (t_i + w_i)``.  The QoS ladder
allocates device capacity rank by rank
(:func:`repro.tenancy.qos.allocate_capacity`); a tenant funded below its
demand runs with every service time stretched by ``demand / alloc``
(:func:`repro.tenancy.qos.service_scales`).  The tenant simulators then
co-run on one shared :class:`~repro.des.engine.Engine` via the
``prepare()/finalize()`` protocol of
:class:`~repro.sim.enforced.EnforcedWaitsSimulator`.

Two properties make this model testable:

- **Scale 1 is exact**: a fully funded tenant's co-simulation is
  *bit-identical* to its solo run — same seed, same RNG streams, same
  event order within the tenant (tenant simulators never touch each
  other's queues, and each owns a private
  :class:`~repro.des.rng.RngRegistry`).
- **Degradation is monotone**: stretching service times can only delay
  completions in the (max,+) event graph, so an underfunded tenant's
  latency and makespan never improve over solo — the differential-fuzz
  battery pins this.

Device ledger
-------------

A tenant's simulated busy time is measured on *stretched* services; the
device-seconds charge converts back to device work:
``device_seconds = sum(active_time) / scale / N``.  Summed over tenants
this never exceeds ``capacity * makespan`` (the allocation invariant),
which :class:`~repro.obs.telemetry.DeviceTelemetry` checks via
``conserves()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arrivals.base import ArrivalProcess
from repro.dataflow.spec import NodeSpec, PipelineSpec
from repro.des.engine import Engine
from repro.errors import SpecError
from repro.obs.telemetry import DeviceTelemetry, TenantLedgerTelemetry
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.metrics import SimMetrics
from repro.tenancy.qos import QoSClass, allocate_capacity, qos_class, service_scales

__all__ = ["MultiTenantSimResult", "MultiTenantSimulator", "SimTenant"]


@dataclass(frozen=True)
class SimTenant:
    """One tenant's workload for the multi-tenant simulator."""

    name: str
    pipeline: PipelineSpec
    waits: np.ndarray
    arrivals: ArrivalProcess
    deadline: float
    n_items: int
    qos: str | QoSClass = "best-effort"
    seed: int = 0
    keep_latency_samples: bool = False

    def active_fraction(self) -> float:
        """The demand implied by the enforced waits."""
        t = self.pipeline.service_times
        w = np.asarray(self.waits, dtype=float)
        return float(np.mean(t / (t + w)))


@dataclass(frozen=True)
class MultiTenantSimResult:
    """Per-tenant metrics plus the shared-device accounting."""

    tenants: dict[str, SimMetrics]
    demands: dict[str, float]
    allocations: dict[str, float]
    scales: dict[str, float]
    qos: dict[str, QoSClass]
    makespan: float
    device: DeviceTelemetry
    events_processed: int = 0
    extra: dict = field(default_factory=dict)

    def metrics(self, name: str) -> SimMetrics:
        return self.tenants[name]

    def missed(self, name: str) -> int:
        return self.tenants[name].missed_items

    def p99_latency(self, name: str) -> float:
        """Per-tenant p99 latency (needs ``keep_latency_samples=True``)."""
        return self.tenants[name].extra["ledger"].latency.quantile(0.99)

    def conserves(self, *, tol: float = 1e-6) -> bool:
        """Device-seconds ledger conservation (see module docstring)."""
        return self.device.conserves(tol=tol)


class MultiTenantSimulator:
    """Co-simulate K tenants on one shared virtual device.

    Parameters
    ----------
    tenants:
        The tenant workloads; names must be unique.
    capacity:
        Device capacity in active-fraction units (as in
        :func:`repro.core.admission.admit`).
    max_scale:
        Slowdown clamp for defunded tenants
        (:func:`repro.tenancy.qos.service_scales`).
    qos_queues:
        When True (default), each tenant's queues take its QoS class's
        bound and shed policy, so underfunded best-effort tenants shed
        instead of ballooning.  ``False`` runs every tenant with
        unbounded queues — the configuration the differential-fuzz
        battery uses, where item conservation must be exact.
    """

    def __init__(
        self,
        tenants: list[SimTenant],
        *,
        capacity: float = 1.0,
        max_scale: float = 64.0,
        qos_queues: bool = True,
        max_events: int = 50_000_000,
    ) -> None:
        if not tenants:
            raise SpecError("MultiTenantSimulator needs at least one tenant")
        names = [t.name for t in tenants]
        if len(set(names)) != len(names):
            raise SpecError(f"duplicate tenant names: {names}")
        self.tenants = list(tenants)
        self.capacity = float(capacity)
        self.max_scale = float(max_scale)
        self.qos_queues = bool(qos_queues)
        self.max_events = int(max_events)
        self._ran = False

    def run(self) -> MultiTenantSimResult:
        """Run the co-simulation to quiescence (single use)."""
        if self._ran:
            raise SpecError("MultiTenantSimulator instances are single-use")
        self._ran = True

        qos = {t.name: qos_class(t.qos) for t in self.tenants}
        demands = {t.name: t.active_fraction() for t in self.tenants}
        demand_map = {
            name: (qos[name], demands[name]) for name in demands
        }
        allocations = allocate_capacity(demand_map, capacity=self.capacity)
        scales = service_scales(
            demand_map, capacity=self.capacity, max_scale=self.max_scale
        )

        engine = Engine()
        sims: dict[str, EnforcedWaitsSimulator] = {}
        for t in self.tenants:
            scale = scales[t.name]
            pipeline = t.pipeline
            if scale != 1.0:
                # Stretch services, reuse the gain objects: the RNG draw
                # sequence per stream is then identical to the tenant's
                # solo run, isolating the timing effect of contention.
                pipeline = PipelineSpec(
                    tuple(
                        NodeSpec(n.name, n.service_time * scale, n.gain)
                        for n in pipeline.nodes
                    ),
                    pipeline.vector_width,
                )
            cls = qos[t.name]
            queue_capacity = None
            shed_policy = None
            if self.qos_queues:
                queue_capacity = cls.queue_capacity(pipeline.vector_width)
                shed_policy = cls.shed if queue_capacity is not None else None
            sims[t.name] = EnforcedWaitsSimulator(
                pipeline,
                t.waits,
                t.arrivals,
                t.deadline,
                t.n_items,
                seed=t.seed,
                keep_latency_samples=t.keep_latency_samples,
                queue_capacity=queue_capacity,
                shed_policy=shed_policy,
                engine=engine,
            )

        for sim in sims.values():
            sim.prepare()
        engine.run(max_events=self.max_events)
        metrics = {name: sim.finalize() for name, sim in sims.items()}

        makespan = max(m.makespan for m in metrics.values())
        ledgers = []
        for t in self.tenants:
            m = metrics[t.name]
            n_nodes = t.pipeline.n_nodes
            device_seconds = float(
                np.sum(m.active_time_per_node) / scales[t.name] / n_nodes
            )
            ledgers.append(
                TenantLedgerTelemetry(
                    name=t.name,
                    qos=qos[t.name].name,
                    weight=qos[t.name].weight,
                    busy_seconds=device_seconds,
                    grants=int(np.sum(m.firings)),
                    share=(
                        device_seconds / makespan if makespan > 0 else 0.0
                    ),
                )
            )
        # The simulated device offers capacity * makespan device-seconds;
        # DeviceTelemetry counts whole slots, so a capacity above 1.0
        # (an uncontended sizing) needs enough slots to cover it.
        device = DeviceTelemetry(
            elapsed=makespan,
            slots=max(1, int(np.ceil(self.capacity))),
            capacity=self.capacity,
            tenants=tuple(ledgers),
        )
        return MultiTenantSimResult(
            tenants=metrics,
            demands=demands,
            allocations=allocations,
            scales=scales,
            qos=qos,
            makespan=makespan,
            device=device,
            events_processed=engine.events_processed,
        )
