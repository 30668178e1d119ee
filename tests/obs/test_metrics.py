"""Behavior of the metrics registry (:mod:`repro.obs.metrics`).

Instrument semantics, label handling, the nearest-rank percentile
edge cases the server's p50/p99 report depends on, and the Prometheus
text exposition (rendered and strictly re-validated).
"""

import math
import threading

import pytest

from repro.obs import metrics
from repro.obs.metrics import (MetricsRegistry, percentile,
                               render_prometheus,
                               validate_exposition)


class TestPercentile:
    def test_empty_samples_raise(self):
        with pytest.raises(ValueError, match="no samples"):
            percentile([], 50.0)

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([7.5], q) == 7.5

    def test_q0_is_min_and_q100_is_max(self):
        samples = [5.0, 1.0, 9.0, 3.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 9.0

    def test_nearest_rank_rounds_up(self):
        samples = list(range(1, 201))  # 1..200
        assert percentile(samples, 1.0) == 2  # ceil(200*0.01) = 2
        assert percentile(samples, 50.0) == 100
        assert percentile(samples, 99.0) == 198
        assert percentile(samples, 99.9) == 200

    def test_out_of_range_and_nan_raise(self):
        for q in (-1.0, 100.1, math.nan):
            with pytest.raises(ValueError, match=r"\[0, 100\]"):
                percentile([1.0], q)

    def test_does_not_mutate_input(self):
        samples = [3.0, 1.0, 2.0]
        percentile(samples, 50.0)
        assert samples == [3.0, 1.0, 2.0]


class TestInstruments:
    def test_counter_increments_and_rejects_decrease(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError, match="only increase"):
            counter.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13.0

    def test_histogram_buckets_sum_count(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", buckets=(1.0, 2.0, 5.0))
        for value in (0.5, 1.5, 1.5, 10.0):
            histogram.observe(value)
        snap = histogram.snapshot()
        # Cumulative counts per upper bound.
        assert snap["buckets"] == {1.0: 1, 2.0: 3, 5.0: 3}
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(13.5)

    def test_histogram_window_percentiles(self):
        histogram = MetricsRegistry().histogram(
            "h_seconds", window=3)
        assert histogram.percentile(50.0) is None  # empty: no data
        for value in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(value)
        assert histogram.samples() == [2.0, 3.0, 4.0]  # bounded ring
        assert histogram.percentile(50.0) == 3.0
        assert histogram.count == 4  # cumulative count keeps going

    def test_same_name_same_labels_is_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", labels={"x": "1", "y": "2"})
        b = reg.counter("c_total", labels={"y": "2", "x": "1"})
        c = reg.counter("c_total", labels={"x": "other"})
        assert a is b
        assert a is not c

    def test_kind_conflicts_and_bad_names_raise(self):
        reg = MetricsRegistry()
        reg.counter("taken_total")
        with pytest.raises(ValueError, match="is a counter"):
            reg.gauge("taken_total")
        with pytest.raises(ValueError, match="bad metric name"):
            reg.counter("0bad")
        with pytest.raises(ValueError, match="bad label name"):
            reg.counter("ok_total", labels={"0bad": "v"})

    def test_concurrent_increments_do_not_lose_counts(self):
        counter = MetricsRegistry().counter("c_total")

        def bump():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert counter.value == 8000


class TestRendering:
    def test_render_is_valid_exposition(self):
        reg = MetricsRegistry()
        reg.counter("repro_c_total", "a counter",
                    labels={"kind": "x"}).inc(3)
        reg.gauge("repro_g", "a gauge").set(1.5)
        reg.histogram("repro_h_seconds", "a histogram",
                      buckets=(0.1, 1.0)).observe(0.5)
        text = reg.render()
        counts = validate_exposition(text)
        assert counts["repro_c_total"] == 1
        assert counts["repro_g"] == 1
        # 2 finite buckets + +Inf + sum + count.
        assert counts["repro_h_seconds"] == 5
        assert '# TYPE repro_h_seconds histogram' in text
        assert 'le="+Inf"' in text
        assert 'kind="x"' in text

    def test_label_values_are_escaped(self):
        reg = MetricsRegistry()
        reg.counter("c_total", labels={"p": 'a"b\\c\nd'}).inc()
        text = reg.render()
        validate_exposition(text)
        assert r'p="a\"b\\c\nd"' in text

    def test_render_prometheus_merges_registries(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        first.counter("one_total").inc()
        second.counter("two_total").inc()
        counts = validate_exposition(render_prometheus(first, second))
        assert set(counts) == {"one_total", "two_total"}

    def test_validator_rejects_malformed_documents(self):
        with pytest.raises(ValueError, match="no TYPE header"):
            validate_exposition("untyped_metric 1\n")
        with pytest.raises(ValueError, match="bad sample"):
            validate_exposition("# TYPE x counter\nx one\n")
        with pytest.raises(ValueError, match="bad label pair"):
            validate_exposition('# TYPE x counter\nx{a=b} 1\n')

    def test_global_registry_is_shared(self):
        assert metrics.registry() is metrics.registry()
        assert metrics.registry() is metrics.REGISTRY
