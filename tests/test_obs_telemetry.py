"""Tests for the run telemetry layer (repro.obs)."""

import math
import pickle

import numpy as np
import pytest

from repro.arrivals.fixed import FixedRateArrivals
from repro.obs import (
    EngineTelemetry,
    NodeTelemetry,
    RunTelemetry,
    TelemetryCollector,
)
from repro.sim.adaptive import AdaptiveWaitsSimulator
from repro.sim.enforced import EnforcedWaitsSimulator
from repro.sim.monolithic import MonolithicSimulator
from repro.sim.report import summarize_telemetry


class TestCollector:
    def test_rejects_bad_vector_width(self):
        with pytest.raises(ValueError):
            TelemetryCollector(["a"], 0)

    def test_hooks_aggregate_into_node_telemetry(self):
        col = TelemetryCollector(["a", "b"], vector_width=4)
        # Node a: two firings, one empty, over a makespan of 10.
        col.on_enqueue(0, 0.0, pushed=4, qlen=4)
        col.on_fire(0, 1.0, consumed=4, qlen=0)
        col.on_complete(0, 3.0, duration=2.0)
        col.on_fire(0, 5.0, consumed=0, qlen=0)
        col.on_complete(0, 6.0, duration=1.0)
        tel = col.finalize(
            strategy="unit", makespan=10.0, events_processed=7, wall_time=0.5
        )
        assert tel.strategy == "unit"
        a = tel.nodes[0]
        assert a.firings == 2
        assert a.empty_firings == 1
        assert a.items_consumed == 4
        assert a.mean_occupancy == pytest.approx(0.5)  # (1.0 + 0.0) / 2
        assert a.service_time == pytest.approx(3.0)
        assert a.wait_time == pytest.approx(7.0)
        assert a.queue_hwm == 4
        assert a.queue_hwm_vectors == pytest.approx(1.0)
        assert a.queue_pushed == 4
        assert a.queue_popped == 4
        # Queue held 4 items over [0,1), empty afterwards.
        assert a.queue_time_avg == pytest.approx(4.0 * 1.0 / 10.0)
        # Node b never fired.
        b = tel.nodes[1]
        assert b.firings == 0
        assert math.isnan(b.mean_occupancy)
        assert b.service_time == 0.0

    def test_finalize_with_zero_makespan(self):
        col = TelemetryCollector(["a"], vector_width=2)
        tel = col.finalize(
            strategy="unit", makespan=0.0, events_processed=0, wall_time=0.0
        )
        assert math.isnan(tel.nodes[0].wait_time)
        assert math.isnan(tel.nodes[0].queue_time_avg)


class TestEngineTelemetry:
    def test_derived_rates(self):
        eng = EngineTelemetry(events_processed=100, sim_time=50.0, wall_time=2.0)
        assert eng.events_per_wall_second == pytest.approx(50.0)
        assert eng.wall_time_per_sim_second == pytest.approx(0.04)

    def test_rates_nan_on_zero_denominator(self):
        eng = EngineTelemetry(events_processed=0, sim_time=0.0, wall_time=0.0)
        assert math.isnan(eng.events_per_wall_second)
        assert math.isnan(eng.wall_time_per_sim_second)


class TestRender:
    def _telemetry(self):
        node = NodeTelemetry(
            name="scan",
            firings=10,
            empty_firings=1,
            items_consumed=36,
            mean_occupancy=0.9,
            service_time=40.0,
            wait_time=60.0,
            queue_hwm=12,
            queue_hwm_vectors=3.0,
            queue_time_avg=2.5,
            queue_pushed=36,
            queue_popped=36,
        )
        eng = EngineTelemetry(events_processed=50, sim_time=100.0, wall_time=0.1)
        return RunTelemetry(strategy="enforced", nodes=(node,), engine=eng)

    def test_render_mentions_nodes_and_engine(self):
        text = self._telemetry().render()
        assert "run telemetry (enforced)" in text
        assert "scan" in text
        assert "engine: 50 events" in text

    def test_summarize_telemetry_delegates(self):
        tel = self._telemetry()
        assert summarize_telemetry(tel) == tel.render()


class TestSimulatorIntegration:
    def _enforced(self, pipeline, *, telemetry, seed=3):
        return EnforcedWaitsSimulator(
            pipeline,
            np.zeros(pipeline.n_nodes),
            FixedRateArrivals(10.0),
            1e6,
            300,
            seed=seed,
            telemetry=telemetry,
        )

    def test_enforced_attaches_telemetry(self, tiny_pipeline):
        m = self._enforced(tiny_pipeline, telemetry=True).run()
        tel = m.extra["telemetry"]
        assert isinstance(tel, RunTelemetry)
        assert tel.strategy == "enforced"
        assert [n.name for n in tel.nodes] == ["a", "b"]
        # Telemetry cross-checks against the metrics' own aggregates.
        assert [n.firings for n in tel.nodes] == list(m.firings)
        assert [n.empty_firings for n in tel.nodes] == list(m.empty_firings)
        np.testing.assert_allclose(
            [n.queue_hwm_vectors for n in tel.nodes], m.queue_hwm_vectors
        )
        assert tel.engine.sim_time == pytest.approx(m.makespan)
        assert tel.engine.events_processed > 0
        assert tel.engine.wall_time > 0

    def test_enforced_off_by_default(self, tiny_pipeline):
        m = self._enforced(tiny_pipeline, telemetry=False).run()
        assert "telemetry" not in m.extra

    def test_telemetry_is_passive(self, tiny_pipeline):
        """Collection must not perturb the simulation (no RNG, no queue)."""
        plain = self._enforced(tiny_pipeline, telemetry=False).run()
        observed = self._enforced(tiny_pipeline, telemetry=True).run()
        assert plain.outputs == observed.outputs
        assert plain.makespan == observed.makespan
        assert plain.mean_latency == observed.mean_latency
        assert plain.active_fraction == observed.active_fraction
        np.testing.assert_array_equal(plain.firings, observed.firings)

    def test_adaptive_attaches_telemetry(self, tiny_pipeline):
        m = AdaptiveWaitsSimulator(
            tiny_pipeline,
            np.zeros(tiny_pipeline.n_nodes),
            FixedRateArrivals(10.0),
            1e6,
            200,
            seed=1,
            telemetry=True,
        ).run()
        tel = m.extra["telemetry"]
        assert tel.strategy.startswith("adaptive:")
        assert [n.firings for n in tel.nodes] == list(m.firings)

    def test_monolithic_attaches_telemetry(self, tiny_pipeline):
        m = MonolithicSimulator(
            tiny_pipeline,
            8,
            FixedRateArrivals(10.0),
            1e6,
            200,
            seed=1,
            telemetry=True,
        ).run()
        tel = m.extra["telemetry"]
        assert tel.strategy == "monolithic"
        assert tel.nodes[0].queue_hwm >= 0
        assert tel.engine.sim_time == pytest.approx(m.makespan)

    def test_telemetry_pickles(self, tiny_pipeline):
        tel = self._enforced(tiny_pipeline, telemetry=True).run().extra[
            "telemetry"
        ]
        clone = pickle.loads(pickle.dumps(tel))
        assert clone == tel


class TestExport:
    def _telemetry(self, tiny_pipeline):
        sim = EnforcedWaitsSimulator(
            tiny_pipeline,
            np.zeros(tiny_pipeline.n_nodes),
            FixedRateArrivals(10.0),
            1e6,
            200,
            seed=0,
            telemetry=True,
        )
        return sim.run()

    def test_telemetry_to_dict_schema(self, tiny_pipeline):
        from repro.experiments.export import telemetry_to_dict

        tel = self._telemetry(tiny_pipeline).extra["telemetry"]
        d = telemetry_to_dict(tel)
        assert d["strategy"] == "enforced"
        assert {n["name"] for n in d["nodes"]} == {"a", "b"}
        for rec in d["nodes"]:
            assert {"firings", "queue_hwm", "service_time"} <= set(rec)
        assert d["engine"]["events_processed"] > 0
        assert "events_per_wall_second" in d["engine"]

    def test_telemetry_json_and_csv_roundtrip(self, tiny_pipeline, tmp_path):
        import csv
        import json

        from repro.experiments.export import (
            save_json,
            telemetry_to_csv,
            telemetry_to_dict,
        )

        tel = self._telemetry(tiny_pipeline).extra["telemetry"]
        jpath = save_json(telemetry_to_dict(tel), tmp_path / "t.json")
        loaded = json.loads(jpath.read_text())
        assert loaded["nodes"][0]["firings"] == tel.nodes[0].firings
        cpath = telemetry_to_csv(tel, tmp_path / "t.csv")
        with cpath.open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert int(rows[0]["firings"]) == tel.nodes[0].firings

    def test_metrics_to_dict_embeds_telemetry(self, tiny_pipeline):
        from repro.experiments.export import metrics_to_dict

        m = self._telemetry(tiny_pipeline)
        d = metrics_to_dict(m)
        assert isinstance(d["extra"]["telemetry"], dict)
        assert d["extra"]["telemetry"]["strategy"] == "enforced"

    def test_trials_to_dict_records_outcomes(self, tiny_pipeline):
        from repro.experiments.export import trials_to_dict
        from repro.sim.campaign import run_trials
        from repro.sim.faults import FaultPlan

        trials = run_trials(
            EnforcedWaitsSimulator,
            dict(
                pipeline=tiny_pipeline,
                waits=np.zeros(tiny_pipeline.n_nodes),
                arrivals=FixedRateArrivals(10.0),
                deadline=1e6,
                n_items=200,
            ),
            3,
            faults=FaultPlan(crash_seeds=(1,)),
        )
        d = trials_to_dict(trials)
        assert d["n_ok"] == 2
        assert d["n_failed"] == 1
        statuses = [o["status"] for o in d["outcomes"]]
        assert statuses == ["ok", "failed", "ok"]
        assert d["outcomes"][1]["metrics"] is None
        assert "InjectedFault" in d["outcomes"][1]["error"]
