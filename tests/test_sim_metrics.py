"""Tests for the latency ledger and SimMetrics."""

import math

import numpy as np
import pytest

from repro.sim.metrics import LatencyLedger, SimMetrics


class TestLatencyLedger:
    def test_on_time_exit(self):
        led = LatencyLedger(deadline=100.0)
        led.record_exit(origin=10.0, exit_time=50.0)
        assert led.outputs == 1
        assert led.missed_items == 0
        assert led.latency.mean == pytest.approx(40.0)

    def test_late_exit_counts_item_once(self):
        led = LatencyLedger(deadline=100.0)
        led.record_exit(10.0, 150.0)  # late
        led.record_exit(10.0, 160.0)  # same item, late again
        assert led.late_outputs == 2
        assert led.missed_items == 1  # per origin item

    def test_any_late_output_marks_item(self):
        led = LatencyLedger(deadline=100.0)
        led.record_exit(0.0, 50.0)  # on time
        led.record_exit(0.0, 200.0)  # late
        assert led.missed_items == 1

    def test_boundary_is_not_a_miss(self):
        led = LatencyLedger(deadline=100.0)
        led.record_exit(0.0, 100.0)
        assert led.missed_items == 0

    def test_record_exits_batch(self):
        led = LatencyLedger(deadline=10.0)
        led.record_exits(np.asarray([0.0, 1.0, 5.0]), 12.0)
        assert led.outputs == 3
        assert led.missed_items == 2  # origins 0 and 1 are late

    def test_negative_latency_rejected(self):
        led = LatencyLedger(deadline=10.0)
        with pytest.raises(ValueError):
            led.record_exit(5.0, 4.0)

    def test_miss_rate(self):
        led = LatencyLedger(deadline=10.0)
        led.record_exit(0.0, 100.0)
        assert led.miss_rate(10) == pytest.approx(0.1)
        assert math.isnan(led.miss_rate(0))

    def test_bad_deadline_rejected(self):
        with pytest.raises(ValueError):
            LatencyLedger(0.0)

    def test_nan_deadline_rejected(self):
        # ``nan <= 0`` is False: a NaN deadline used to score every
        # exit as on time.
        with pytest.raises(ValueError, match="deadline"):
            LatencyLedger(float("nan"))

    def test_infinite_deadline_is_no_deadline(self):
        led = LatencyLedger(math.inf)
        led.record_exits(np.asarray([0.0, 1.0]), 1e300, ids=np.arange(2))
        assert led.outputs == 2
        assert led.missed_items == 0


class TestSimMetrics:
    def _metrics(self, missed=0):
        return SimMetrics(
            strategy="enforced",
            n_items=100,
            makespan=1000.0,
            active_time_per_node=np.asarray([10.0, 20.0]),
            active_fraction=0.015,
            missed_items=missed,
            miss_rate=missed / 100,
            outputs=50,
            mean_latency=5.0,
            max_latency=9.0,
            queue_hwm_vectors=np.asarray([1.0, 2.0]),
            firings=np.asarray([10, 5]),
            empty_firings=np.asarray([0, 1]),
            mean_occupancy=np.asarray([0.9, 0.7]),
        )

    def test_miss_free(self):
        assert self._metrics(0).miss_free
        assert not self._metrics(1).miss_free
