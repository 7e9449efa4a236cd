"""Unit tests for counters, gauges, histograms and the registry."""

import dataclasses

import numpy as np
import pytest

from repro.telemetry import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    exponential_buckets,
    prometheus_text,
)
from repro.telemetry.metrics import tally


class TestCounterGauge:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc()
        counter.inc(4)
        assert registry.value("events") == 5.0

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_counter_is_shared_on_retouch(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(-3)
        gauge.inc(1)
        assert gauge.value == 8.0

    def test_labels_fan_out_into_children(self):
        registry = MetricsRegistry()
        registry.counter("tx", link="1-2").inc(7)
        registry.counter("tx", link="3-4").inc(1)
        assert registry.value("tx", link="1-2") == 7.0
        assert registry.value("tx", link="3-4") == 1.0
        assert len(registry.get("tx").children) == 2

    def test_label_order_is_canonical(self):
        registry = MetricsRegistry()
        a = registry.counter("x", b="2", a="1")
        b = registry.counter("x", a="1", b="2")
        assert a is b

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_value_default_for_missing(self):
        assert MetricsRegistry().value("absent", default=-1.0) == -1.0


class _Tally:
    def __init__(self, count=0):
        self.count = count


class TestExpose:
    def test_value_is_read_when_asked(self):
        registry = MetricsRegistry()
        source = _Tally()
        registry.expose("x", source, "count")
        assert registry.value("x") == 0.0
        source.count += 3
        assert registry.value("x") == 3.0

    def test_distinct_sources_add_up(self):
        registry = MetricsRegistry()
        registry.expose("x", _Tally(2), "count", shard="0")
        registry.expose("x", _Tally(5), "count", shard="0")
        registry.expose("x", _Tally(7), "count", shard="1")
        assert registry.value("x", shard="0") == 7.0
        assert registry.value("x", shard="1") == 7.0

    def test_one_source_exposed_twice_counts_once(self):
        registry = MetricsRegistry()
        source = _Tally(4)
        registry.expose("x", source, "count")
        registry.expose("x", source, "count")
        assert registry.value("x") == 4.0

    def test_incrementing_an_exposed_name_raises(self):
        registry = MetricsRegistry()
        registry.expose("x", _Tally(), "count")
        with pytest.raises(ValueError, match="already registered"):
            registry.counter("x")

    def test_exposing_an_incremented_name_raises(self):
        registry = MetricsRegistry()
        registry.counter("x").inc()
        with pytest.raises(ValueError, match="already registered"):
            registry.expose("x", _Tally(), "count")

    def test_exposed_renders_as_an_incremented_counter(self):
        exposed, incremented = MetricsRegistry(), MetricsRegistry()
        exposed.expose("net.tx", _Tally(3), "count", help="copies", link="1")
        incremented.counter("net.tx", help="copies", link="1").inc(3)
        assert prometheus_text(exposed) == prometheus_text(incremented)

    def test_tally_fields_are_exposed_under_a_prefix(self):
        @dataclasses.dataclass
        class Stats:
            sent: int = tally("messages sent")
            kept: int = tally("messages kept", name="retained")
            untracked: int = 0

        registry = MetricsRegistry()
        stats = Stats(sent=2, kept=1)
        registry.expose_tallies("q", stats)
        assert [f.name for f in registry.families()] == [
            "q.sent", "q.retained",
        ]
        assert registry.get("q.sent").help == "messages sent"
        assert registry.value("q.retained") == 1.0


class TestHistogram:
    def test_bounds_must_increase(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            Histogram(bounds=())

    def test_basic_stats(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.sum == pytest.approx(555.5)
        assert histogram.mean == pytest.approx(138.875)
        assert histogram.minimum == 0.5
        assert histogram.maximum == 500.0
        assert histogram.counts == [1, 1, 1, 1]  # last = overflow

    def test_empty_histogram_quantile_is_zero(self):
        assert Histogram().p50 == 0.0

    def test_quantile_validates_range(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.95, 0.99])
    def test_quantiles_close_to_numpy(self, q, rng):
        # Estimates interpolate inside a fixed bucket, so agreement
        # with the exact order statistic is bounded by one bucket
        # width around the true quantile.
        sample = rng.lognormal(mean=0.0, sigma=1.0, size=20_000)
        bounds = exponential_buckets(0.01, 2 ** 0.25, 60)
        histogram = Histogram(bounds=bounds)
        for value in sample:
            histogram.observe(value)
        exact = float(np.percentile(sample, 100 * q))
        estimate = histogram.quantile(q)
        upper = next(b for b in bounds if b >= exact)
        width = upper * (2 ** 0.25 - 1)
        assert abs(estimate - exact) <= width

    def test_quantiles_clamped_to_observed_range(self):
        histogram = Histogram(bounds=(10.0, 100.0))
        histogram.observe(42.0)
        assert histogram.quantile(0.0) == 42.0
        assert histogram.quantile(1.0) == 42.0

    def test_overflow_bucket_quantile(self):
        histogram = Histogram(bounds=(1.0,))
        histogram.observe(1000.0)
        # No upper edge to interpolate toward; reports the best known
        # lower bound for the overflow bucket.
        assert histogram.quantile(0.99) == 1000.0

    def test_exponential_buckets_validation(self):
        with pytest.raises(ValueError):
            exponential_buckets(0.0, 2.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 1.0, 4)
        with pytest.raises(ValueError):
            exponential_buckets(1.0, 2.0, 0)

    def test_default_buckets_span_latency_range(self):
        assert DEFAULT_BUCKETS[0] == pytest.approx(0.01)
        assert DEFAULT_BUCKETS[-1] > 1e4


class TestPrometheusExport:
    def test_counter_and_labels(self):
        registry = MetricsRegistry()
        registry.counter("net.tx", help="copies", link="1-2").inc(3)
        text = prometheus_text(registry)
        assert "# HELP net_tx copies" in text
        assert "# TYPE net_tx counter" in text
        assert 'net_tx{link="1-2"} 3' in text

    def test_histogram_cumulative_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", bounds=(1.0, 10.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        text = prometheus_text(registry)
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="10"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_sum 56.1" in text
        assert "lat_count 4" in text

    def test_numbers_are_plain_floats(self):
        registry = MetricsRegistry()
        registry.histogram("x", bounds=(1.0,)).observe(
            np.float64(0.25)
        )
        text = prometheus_text(registry)
        assert "float64" not in text
        assert "x_sum 0.25" in text

    def test_empty_registry_is_empty_string(self):
        assert prometheus_text(MetricsRegistry()) == ""


class TestNullRegistry:
    def test_records_nothing_allocates_nothing(self):
        registry = NullMetricsRegistry()
        a = registry.counter("x", link="1")
        b = registry.counter("y", link="2")
        assert a is b  # shared inert instrument
        a.inc(100)
        assert a.value == 0.0
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        registry.expose("e", _Tally(9), "count")
        assert registry.value("x") == 0.0
        assert registry.value("e") == 0.0
        assert list(registry.families()) == []
        assert prometheus_text(registry) == ""
