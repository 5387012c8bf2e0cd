"""Tests for the live-metrics subsystem (repro.obs.metrics).

Covers the metric primitives, the registry's snapshot/merge contract,
the Prometheus text exposition (render + parse round-trip), the
zero-cost ``NullMetrics`` default, the ambient session, and the
cross-process worker-snapshot aggregation the serve layer uses.
"""

import json
import os
import stat

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    METRICS_SCHEMA,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    append_snapshot_jsonl,
    load_worker_snapshots,
    merge_worker_snapshots,
    metrics_dir,
    parse_prometheus,
    render_prometheus,
    write_prometheus,
    write_worker_snapshot,
)
from repro.obs.session import current_session, session


class TestPrimitives:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        jobs = registry.counter("repro_jobs_total", "Jobs")
        jobs.inc()
        jobs.inc(2.5)
        assert jobs.value == 3.5

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match=">= 0"):
            registry.counter("repro_jobs_total").inc(-1)

    def test_gauge_set_inc_dec(self):
        registry = MetricsRegistry()
        depth = registry.gauge("repro_depth")
        depth.set(7)
        depth.inc(3)
        depth.dec()
        assert depth.value == 9.0

    def test_histogram_buckets_cumulative_placement(self):
        registry = MetricsRegistry()
        hist = registry.histogram(
            "repro_latency_ms", buckets=(1.0, 5.0, 10.0)
        )
        child = hist.labels()
        for value in (0.5, 1.0, 4.0, 10.0, 99.0):
            child.observe(value)
        # Inclusive upper bounds: 1.0 lands in le=1, 10.0 in le=10.
        assert child.bucket_counts == [2, 1, 1, 1]
        assert child.count == 5
        assert child.sum == pytest.approx(114.5)
        assert child.mean() == pytest.approx(22.9)

    def test_histogram_bounds_validated(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increasing"):
            registry.histogram("repro_bad_ms", buckets=(5.0, 1.0))
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("repro_empty_ms", buckets=())
        with pytest.raises(ValueError, match="finite"):
            registry.histogram(
                "repro_inf_ms", buckets=(1.0, float("inf"))
            )

    def test_default_latency_buckets_strictly_increasing(self):
        bounds = DEFAULT_LATENCY_BUCKETS_MS
        assert all(b > a for a, b in zip(bounds, bounds[1:]))


class TestFamilies:
    def test_labeled_series_get_or_create(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "repro_jobs_total", labels=("worker",)
        )
        family.labels(worker="w0").inc()
        family.labels(worker="w0").inc()
        family.labels(worker="w1").inc()
        assert family.labels(worker="w0").value == 2.0
        assert family.labels(worker="w1").value == 1.0
        assert [key for key, _ in family.series()] == [("w0",), ("w1",)]

    def test_wrong_label_set_rejected(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_jobs_total", labels=("worker",))
        with pytest.raises(ValueError, match="expects labels"):
            family.labels(host="a")

    def test_labeled_family_rejects_unlabeled_use(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_jobs_total", labels=("worker",))
        with pytest.raises(ValueError, match="use .labels"):
            family.inc()

    def test_bad_metric_and_label_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="bad metric name"):
            registry.counter("1bad")
        with pytest.raises(ValueError, match="bad label name"):
            registry.counter("repro_ok_total", labels=("0bad",))

    def test_redeclaration_must_agree(self):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total", labels=("worker",))
        with pytest.raises(ValueError, match="already declared as"):
            registry.gauge("repro_jobs_total", labels=("worker",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("repro_jobs_total", labels=("host",))
        registry.histogram("repro_wall_ms", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="other buckets"):
            registry.histogram("repro_wall_ms", buckets=(1.0, 3.0))

    def test_sample_count_counts_series(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_jobs_total", labels=("worker",))
        family.labels(worker="w0").inc()
        family.labels(worker="w1").inc()
        registry.gauge("repro_depth").set(1)
        assert registry.sample_count() == 3


class TestSnapshot:
    def build(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_jobs_total", "Jobs", labels=("worker",)
        ).labels(worker="w0").inc(2)
        registry.gauge("repro_depth", "Depth").set(4)
        registry.histogram(
            "repro_wall_ms", "Wall", buckets=(1.0, 10.0)
        ).observe(3.0)
        return registry

    def test_snapshot_is_deterministic(self):
        first = json.dumps(self.build().snapshot(), sort_keys=True)
        second = json.dumps(self.build().snapshot(), sort_keys=True)
        assert first == second

    def test_snapshot_shape(self):
        snapshot = self.build().snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        families = snapshot["families"]
        assert families["repro_jobs_total"]["kind"] == "counter"
        assert families["repro_jobs_total"]["series"] == [
            {"labels": {"worker": "w0"}, "value": 2.0}
        ]
        hist = families["repro_wall_ms"]
        assert hist["buckets"] == [1.0, 10.0]
        (series,) = hist["series"]
        assert series["counts"] == [0, 1, 0]
        assert series["count"] == 1

    def test_merge_adds_counters_and_histograms(self):
        target = self.build()
        target.merge_snapshot(self.build().snapshot())
        jobs = target.counter("repro_jobs_total", labels=("worker",))
        assert jobs.labels(worker="w0").value == 4.0
        wall = target.histogram(
            "repro_wall_ms", buckets=(1.0, 10.0)
        ).labels()
        assert wall.count == 2
        assert wall.bucket_counts == [0, 2, 0]
        # Gauges are last-write-wins, not additive.
        assert target.gauge("repro_depth").value == 4.0

    def test_merge_rejects_unknown_schema(self):
        with pytest.raises(ValueError, match="cannot merge"):
            MetricsRegistry().merge_snapshot({"schema": "nope"})

    def test_merge_rejects_bucket_mismatch(self):
        snapshot = self.build().snapshot()
        target = MetricsRegistry()
        target.merge_snapshot(snapshot)
        bad = json.loads(json.dumps(snapshot))
        bad["families"]["repro_wall_ms"]["buckets"] = [1.0, 10.0, 20.0]
        bad["families"]["repro_wall_ms"]["series"][0]["counts"] = [
            0, 1, 0, 0
        ]
        with pytest.raises(ValueError):
            target.merge_snapshot(bad)


class TestPrometheus:
    def test_render_orders_and_annotates(self):
        registry = MetricsRegistry()
        family = registry.counter(
            "repro_jobs_total", "Jobs done", labels=("worker",)
        )
        family.labels(worker="w1").inc(3)
        family.labels(worker="w0").inc()
        text = render_prometheus(registry)
        lines = text.splitlines()
        assert lines[0] == "# HELP repro_jobs_total Jobs done"
        assert lines[1] == "# TYPE repro_jobs_total counter"
        # Series sorted by label value regardless of creation order.
        assert lines[2] == 'repro_jobs_total{worker="w0"} 1'
        assert lines[3] == 'repro_jobs_total{worker="w1"} 3'

    def test_render_histogram_exposition(self):
        registry = MetricsRegistry()
        registry.histogram(
            "repro_wall_ms", buckets=(1.0, 10.0)
        ).observe(3.0)
        text = render_prometheus(registry)
        assert 'repro_wall_ms_bucket{le="1"} 0' in text
        assert 'repro_wall_ms_bucket{le="10"} 1' in text
        assert 'repro_wall_ms_bucket{le="+Inf"} 1' in text
        assert "repro_wall_ms_sum 3" in text
        assert "repro_wall_ms_count 1" in text

    def test_label_values_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_jobs_total", labels=("name",)
        ).labels(name='a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert 'name="a\\"b\\\\c\\nd"' in text

    def test_parse_round_trip(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_jobs_total", labels=("worker",)
        ).labels(worker="w0").inc(5)
        registry.gauge("repro_depth").set(2.5)
        awkward = ("C:\\new", 'a"b\\c\nd')
        for index, worker in enumerate(awkward, start=1):
            registry.counter(
                "repro_jobs_total", labels=("worker",)
            ).labels(worker=worker).inc(index)
        parsed = parse_prometheus(render_prometheus(registry))
        assert parsed[("repro_jobs_total", (("worker", "w0"),))] == 5.0
        assert parsed[("repro_depth", ())] == 2.5
        for index, worker in enumerate(awkward, start=1):
            key = ("repro_jobs_total", (("worker", worker),))
            assert parsed[key] == index

    def test_write_is_atomic_and_stable(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total").inc()
        path = tmp_path / "metrics.prom"
        write_prometheus(registry, path)
        first = path.read_bytes()
        write_prometheus(registry, path)
        assert path.read_bytes() == first
        assert os.listdir(tmp_path) == ["metrics.prom"]  # no temp litter

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_written_files_get_the_plain_open_mode(self, tmp_path, umask):
        """The atomic writes do not keep mkstemp's owner-only 0600: a
        textfile collector running as another user must be able to
        read the exposition, as it can any file the process writes."""
        registry = MetricsRegistry()
        previous = os.umask(umask)
        try:
            written = [
                write_prometheus(registry, tmp_path / "metrics.prom"),
                write_worker_snapshot(tmp_path, "w0", registry, pid=1),
            ]
            with open(tmp_path / "plain.txt", "w"):
                pass
        finally:
            os.umask(previous)
        expected = stat.S_IMODE(os.stat(tmp_path / "plain.txt").st_mode)
        assert expected == 0o666 & ~umask
        for path in written:
            assert stat.S_IMODE(os.stat(path).st_mode) == expected

    def test_append_snapshot_jsonl(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("repro_jobs_total").inc()
        path = tmp_path / "metrics.jsonl"
        append_snapshot_jsonl(registry, path, now=10.0, meta={"n": 1})
        append_snapshot_jsonl(registry, path, now=20.0, meta={"n": 2})
        lines = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert [line["n"] for line in lines] == [1, 2]
        assert lines[0]["written_at"] == 10.0
        assert lines[1]["metrics"]["schema"] == METRICS_SCHEMA


class TestNullMetrics:
    def test_disabled_and_chainable(self):
        assert NULL_METRICS.enabled is False
        family = NULL_METRICS.counter("repro_x_total", labels=("a",))
        assert family is NULL_METRICS
        assert family.labels(a="1") is NULL_METRICS
        NULL_METRICS.inc()
        NULL_METRICS.set(3)
        NULL_METRICS.observe(1.0)
        assert NULL_METRICS.sample_count() == 0
        assert NULL_METRICS.families() == []

    def test_no_per_call_state(self):
        assert NullMetrics.__slots__ == ()


class TestAmbient:
    def test_default_is_null(self):
        assert current_session().metrics is NULL_METRICS

    def test_session_installs_and_restores(self):
        registry, inner = MetricsRegistry(), MetricsRegistry()
        with session(metrics=registry):
            assert current_session().metrics is registry
            with session(metrics=inner):
                assert current_session().metrics is inner
            assert current_session().metrics is registry
        assert current_session().metrics is NULL_METRICS

    def test_session_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with session(metrics=MetricsRegistry()):
                raise RuntimeError("boom")
        assert current_session().metrics is NULL_METRICS


class TestWorkerSnapshots:
    def fill(self, worker):
        registry = MetricsRegistry()
        registry.counter(
            "repro_jobs_completed_total", labels=("worker",)
        ).labels(worker=worker).inc()
        return registry

    def test_write_and_load(self, tmp_path):
        os.makedirs(metrics_dir(tmp_path))
        path = write_worker_snapshot(
            tmp_path, "worker-0", self.fill("worker-0"), now=5.0, pid=42
        )
        assert os.path.basename(path) == "worker-0-42.json"
        (payload,) = load_worker_snapshots(tmp_path)
        assert payload["worker"] == "worker-0"
        assert payload["pid"] == 42
        assert payload["written_at"] == 5.0

    def test_load_skips_garbage(self, tmp_path):
        os.makedirs(metrics_dir(tmp_path))
        write_worker_snapshot(
            tmp_path, "worker-0", self.fill("worker-0"), pid=1
        )
        with open(
            os.path.join(metrics_dir(tmp_path), "junk.json"), "w"
        ) as handle:
            handle.write("{not json")
        with open(
            os.path.join(metrics_dir(tmp_path), "other.txt"), "w"
        ) as handle:
            handle.write("ignored")
        assert len(load_worker_snapshots(tmp_path)) == 1

    def test_missing_dir_is_empty(self, tmp_path):
        assert load_worker_snapshots(tmp_path / "nope") == []

    def test_merge_adds_and_derives_heartbeats(self, tmp_path):
        os.makedirs(metrics_dir(tmp_path))
        write_worker_snapshot(
            tmp_path, "worker-0", self.fill("worker-0"), now=100.0, pid=1
        )
        write_worker_snapshot(
            tmp_path, "worker-1", self.fill("worker-1"), now=104.0, pid=2
        )
        registry, workers = merge_worker_snapshots(tmp_path, now=110.0)
        completed = registry.counter(
            "repro_jobs_completed_total", labels=("worker",)
        )
        total = sum(child.value for _, child in completed.series())
        assert total == 2.0
        last_seen = registry.gauge(
            "repro_worker_last_seen_seconds", labels=("worker", "pid")
        )
        assert last_seen.labels(worker="worker-0", pid="1").value == 10.0
        assert last_seen.labels(worker="worker-1", pid="2").value == 6.0
        assert [w["worker"] for w in workers] == ["worker-0", "worker-1"]

    def test_same_worker_new_pid_accumulates(self, tmp_path):
        # A second serve session on the same queue must add to, not
        # replace, the finished session's counters.
        os.makedirs(metrics_dir(tmp_path))
        write_worker_snapshot(
            tmp_path, "worker-0", self.fill("worker-0"), pid=1
        )
        write_worker_snapshot(
            tmp_path, "worker-0", self.fill("worker-0"), pid=2
        )
        registry, workers = merge_worker_snapshots(tmp_path)
        completed = registry.counter(
            "repro_jobs_completed_total", labels=("worker",)
        )
        assert completed.labels(worker="worker-0").value == 2.0
        assert len(workers) == 2
