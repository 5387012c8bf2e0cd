"""Tests for the registry's get-or-create accessors and the
snapshot/merge cycle the tracer and the executor rely on."""

import json

import pytest

from repro.obs.metrics import NULL_METRICS, MetricsRegistry


class TestMetrics:
    def test_counter_get_or_create(self):
        registry = MetricsRegistry()
        registry.counter("hits_total").inc()
        registry.counter("hits_total").inc(2)
        assert registry.counter("hits_total").value == 3

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            MetricsRegistry().counter("hits_total").inc(-1)

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("progress").set(0.25)
        registry.gauge("progress").set(0.75)
        assert registry.gauge("progress").value == 0.75

    def test_histogram_buckets_fixed_at_declaration(self):
        registry = MetricsRegistry()
        registry.histogram("lat", buckets=(1.0, 10.0, 100.0)).observe(5.0)
        with pytest.raises(ValueError, match="other buckets"):
            registry.histogram("lat")
        hist = registry.histogram("lat", buckets=(1.0, 10.0, 100.0))
        assert hist.labels().count == 1

    def test_sample_count_counts_all_kinds(self):
        registry = MetricsRegistry()
        registry.counter("a_total").labels()
        registry.gauge("b").labels()
        registry.histogram("d", buckets=(1.0,)).labels()
        assert registry.sample_count() == 3


class TestSnapshotMerge:
    def filled(self):
        registry = MetricsRegistry()
        registry.counter("events_total").inc(10)
        registry.gauge("progress").set(0.5)
        registry.histogram("lat_h", buckets=(1.0, 10.0)).observe(2.0)
        return registry

    def test_snapshot_is_json_compatible(self):
        snapshot = self.filled().snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_merge_counters_add(self):
        left, right = self.filled(), self.filled()
        left.merge_snapshot(right.snapshot())
        assert left.counter("events_total").value == 20

    def test_merge_gauges_last_write(self):
        left = self.filled()
        right = MetricsRegistry()
        right.gauge("progress").set(1.0)
        left.merge_snapshot(right.snapshot())
        assert left.gauge("progress").value == 1.0

    def test_merge_histograms_add(self):
        left, right = self.filled(), self.filled()
        left.merge_snapshot(right.snapshot())
        merged = left.histogram("lat_h", buckets=(1.0, 10.0))
        assert merged.labels().count == 2

    def test_merge_incompatible_histogram_edges_rejected(self):
        left = self.filled()
        snapshot = self.filled().snapshot()
        snapshot["families"]["lat_h"]["buckets"] = [5.0, 50.0]
        with pytest.raises(ValueError, match="other buckets"):
            left.merge_snapshot(snapshot)

    def test_merge_into_empty_registry(self):
        empty = MetricsRegistry()
        empty.merge_snapshot(self.filled().snapshot())
        assert empty.counter("events_total").value == 10
        assert empty.snapshot() == self.filled().snapshot()


class TestNullRegistry:
    def test_accepts_everything_stores_nothing(self):
        NULL_METRICS.counter("x").inc()
        NULL_METRICS.gauge("y").set(1.0)
        NULL_METRICS.histogram("h", buckets=(1.0,)).observe(0.5)
        assert NULL_METRICS.sample_count() == 0
        assert NULL_METRICS.snapshot() == MetricsRegistry().snapshot()
