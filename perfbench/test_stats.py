"""Deterministic tests of the benchmark's own helpers.

Run from the checkout root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from perfbench.stats import (
    Span,
    Tracer,
    beyond,
    campaign_overhead,
    capacity,
    non_increasing,
    self_time_by_layer,
    self_times,
    tail,
    tail_q,
)


class TestTailRule:
    @pytest.mark.parametrize(
        "n, q",
        [(19, None), (20, 0.5), (39, 0.5), (40, 0.75), (100, 0.9),
         (199, 0.9), (200, 0.95), (999, 0.95), (1000, 0.99),
         (9999, 0.99), (10_000, 0.999)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, q):
        assert tail_q(n) == q
        if q is not None:
            assert beyond(n, q) >= 10

    def test_value_and_counts(self):
        t = tail(np.arange(1, 101))
        assert (t.q, t.n, t.beyond) == (0.9, 100, 10)
        assert t.value == pytest.approx(90.1)

    def test_too_few_samples_report_the_maximum(self):
        t = tail([3.0, 1.0, 2.0])
        assert (t.q, t.value, t.n, t.beyond) == (1.0, 3.0, 3, 0)

    def test_empty_is_an_error(self):
        with pytest.raises(ValueError):
            tail([])


class TestCapacityLadder:
    def test_interpolates_the_half_crossing(self):
        rate, censored = capacity([100, 200, 300], [1.0, 0.75, 0.25])
        assert rate == pytest.approx(250.0)
        assert not censored

    def test_every_rung_sustained_is_censored_at_the_top(self):
        assert capacity([100, 200, 300], [1.0, 1.0, 0.5]) == (300.0, True)

    def test_failing_first_rung_interpolates_from_zero(self):
        rate, censored = capacity([100, 200], [0.0, 0.0])
        assert rate == pytest.approx(50.0)
        assert not censored

    def test_a_rung_above_a_worse_one_is_pooled(self):
        assert non_increasing([1.0, 0.5, 0.75, 0.25, 0.5]) == pytest.approx(
            [1.0, 0.625, 0.625, 0.375, 0.375])
        rate, _ = capacity([100, 200, 300, 400, 500],
                           [1.0, 0.5, 0.75, 0.25, 0.5])
        assert rate == pytest.approx(350.0)

    def test_rates_must_increase(self):
        with pytest.raises(ValueError):
            capacity([200, 100], [1.0, 0.0])


class TestSelfTime:
    def test_overlapping_children_count_once(self):
        spans = [
            Span(1, None, "campaign:run", None, 0.0, 10.0),
            Span(2, 1, "sim:trial", None, 1.0, 3.0),
            Span(3, 1, "sim:trial", None, 2.0, 5.0),
            Span(4, 1, "core:solve", None, 7.0, 8.0),
            Span(5, 3, "des:loop", None, 2.5, 3.5),
        ]
        st = self_times(spans)
        assert st[1] == pytest.approx(5.0)
        assert st[3] == pytest.approx(2.0)
        assert st[5] == pytest.approx(1.0)
        assert self_time_by_layer(spans) == pytest.approx(
            {"campaign": 5.0, "sim": 4.0, "core": 1.0, "des": 1.0})

    def test_children_are_clipped_to_the_parent(self):
        spans = [
            Span(1, None, "a:x", None, 0.0, 2.0),
            Span(2, 1, "b:y", None, 1.5, 4.0),
        ]
        assert self_times(spans)[1] == pytest.approx(1.5)

    def test_tracer_nests_per_thread(self):
        tracer = Tracer(True)

        def client() -> None:
            with tracer.span("serving:request"):
                pass

        with tracer.span("campaign:run"):
            with tracer.span("sim:trial", request="r1"):
                pass
            worker = threading.Thread(target=client)
            worker.start()
            worker.join(timeout=5)
        assert not worker.is_alive()
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["sim:trial"].parent == by_name["campaign:run"].id
        assert by_name["sim:trial"].request == "r1"
        # Another thread's spans do not nest under this thread's.
        assert by_name["serving:request"].parent is None

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(False)
        with tracer.span("sim:trial"):
            pass
        assert tracer.spans == []


class TestCampaignOverhead:
    def test_arithmetic(self):
        assert campaign_overhead(10.0, 2.0, 12.0, 2) == pytest.approx(3.0)
        assert campaign_overhead(5.0, 0.0, 5.0, 1) == pytest.approx(0.0)

    def test_needs_a_worker(self):
        with pytest.raises(ValueError):
            campaign_overhead(1.0, 0.0, 1.0, 0)
