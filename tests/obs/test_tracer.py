"""Tests for the span recorder, null tracer, and its ambient session."""

import pickle

import pytest

from repro.obs.session import current_session, session
from repro.obs.tracer import (
    NULL_TRACER,
    PHASES,
    NullTracer,
    Span,
    Tracer,
)


class TestSpan:
    def test_interval_span(self):
        span = Span("seek", "seek", 1.0, 2.5, ("drive", "arm 0"))
        assert not span.is_instant
        assert span.track == ("drive", "arm 0")

    def test_instant_span(self):
        span = Span("arm-select", "instant", 4.0, None, ("d", "arm 1"))
        assert span.is_instant

    def test_tuple_round_trip(self):
        span = Span(
            "transfer", "transfer", 3.0, 0.25, ("d", "arm 2"),
            args={"req": 7},
        )
        clone = Span.from_tuple(span.to_tuple())
        assert clone.name == span.name
        assert clone.cat == span.cat
        assert clone.ts == span.ts
        assert clone.dur == span.dur
        assert clone.track == span.track
        assert clone.args == span.args

    def test_tuple_is_picklable(self):
        span = Span("queue", "queue", 0.0, 1.0, ("d", "queue"))
        assert pickle.loads(pickle.dumps(span.to_tuple()))


class TestTracer:
    def test_records_spans_and_instants(self):
        tracer = Tracer()
        tracer.span("seek", "seek", 0.0, 1.0, ("d", "arm 0"))
        tracer.instant("mark", 0.5, ("d", "arm 0"))
        assert len(tracer.spans) == 2
        assert tracer.spans_by_category() == {"seek": 1, "instant": 1}

    def test_enabled_flag(self):
        assert Tracer().enabled is True

    def test_tracks_first_seen_order(self):
        tracer = Tracer()
        tracer.span("a", "seek", 0, 1, ("d", "arm 1"))
        tracer.span("b", "seek", 0, 1, ("d", "arm 0"))
        tracer.span("c", "seek", 1, 1, ("d", "arm 1"))
        assert tracer.tracks() == [("d", "arm 1"), ("d", "arm 0")]

    def test_max_spans_cap(self):
        tracer = Tracer(max_spans=2)
        for index in range(5):
            tracer.span("s", "seek", index, 1.0, ("d", "arm 0"))
        assert len(tracer.spans) == 2
        assert tracer.dropped_spans == 3

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError, match="max_spans"):
            Tracer(max_spans=0)

    def test_scope_prefixes_process(self):
        tracer = Tracer()
        with tracer.scope("run-a"):
            tracer.span("s", "seek", 0, 1, ("drive", "arm 0"))
            with tracer.scope("inner"):
                tracer.instant("i", 0, ("drive", "arm 0"))
        tracer.span("t", "seek", 1, 1, ("drive", "arm 0"))
        assert tracer.spans[0].track == ("run-a/drive", "arm 0")
        assert tracer.spans[1].track == ("run-a/inner/drive", "arm 0")
        assert tracer.spans[2].track == ("drive", "arm 0")

    def test_payload_merge_round_trip(self):
        worker = Tracer()
        worker.span("seek", "seek", 0, 1, ("d", "arm 0"), args={"req": 1})
        worker.instant("mark", 2, ("d", "arm 0"))
        worker.telemetry.counter("repro_cache_read_hits_total").inc(3)
        worker.telemetry.histogram("repro_run_elapsed_ms").observe(10.0)
        payload = pickle.loads(pickle.dumps(worker.payload()))

        parent = Tracer()
        parent.telemetry.counter("repro_cache_read_hits_total").inc(2)
        parent.merge_payload(payload)
        assert len(parent.spans) == 2
        assert parent.spans[0].args == {"req": 1}
        hits = parent.telemetry.counter("repro_cache_read_hits_total")
        assert hits.value == 5
        elapsed = parent.telemetry.histogram("repro_run_elapsed_ms")
        assert elapsed.labels().count == 1

    def test_merge_payload_accumulates_drops(self):
        parent = Tracer()
        payload = dict(NULL_TRACER.payload(), dropped_spans=4)
        parent.merge_payload(payload)
        assert parent.dropped_spans == 4

    def test_empty_payloads_merge_as_empty(self, tmp_path):
        from repro.obs.export import read_chrome_trace

        parent = Tracer()
        parent.merge_payload(NULL_TRACER.payload())
        path = tmp_path / "empty.json"
        path.write_text('{"traceEvents": [], "otherData": {}}')
        parent.merge_payload(read_chrome_trace(str(path)).payload())
        assert parent.telemetry.snapshot() == NULL_TRACER.payload()[
            "telemetry"
        ]
        assert parent.telemetry.sample_count() == 0

    def test_foreign_telemetry_schema_rejected(self):
        payload = dict(NULL_TRACER.payload(), telemetry={"counters": {}})
        with pytest.raises(ValueError, match="cannot merge metrics schema"):
            Tracer().merge_payload(payload)

    def test_clear(self):
        tracer = Tracer()
        tracer.span("s", "seek", 0, 1, ("d", "arm 0"))
        tracer.telemetry.counter("x").inc()
        tracer.clear()
        assert tracer.spans == []
        assert tracer.telemetry.sample_count() == 0


class TestRingBuffer:
    """Recording stages raw tuples in a preallocated buffer; the Span
    objects only materialise on batch drain or inspection.  None of
    that staging may be observable through the public API."""

    def test_recording_stages_before_materialising(self):
        tracer = Tracer()
        tracer.span("s", "seek", 0, 1, ("d", "arm 0"))
        assert tracer._buffered == 1
        assert tracer._materialized == []

    def test_spans_property_drains_the_buffer(self):
        tracer = Tracer()
        tracer.span("s", "seek", 0, 1, ("d", "arm 0"))
        spans = tracer.spans
        assert len(spans) == 1
        assert tracer._buffered == 0
        # The drained slot is released for reuse.
        assert tracer._buffer[0] is None

    def test_full_buffer_drains_in_batch(self):
        tracer = Tracer()
        for index in range(Tracer.BUFFER_SLOTS):
            tracer.span("s", "seek", float(index), 1.0, ("d", "arm 0"))
        # The filling write triggered the drain; no property read needed.
        assert tracer._buffered == 0
        assert len(tracer._materialized) == Tracer.BUFFER_SLOTS

    def test_multi_batch_recording_preserves_order(self):
        tracer = Tracer()
        total = 2 * Tracer.BUFFER_SLOTS + 100
        for index in range(total):
            tracer.span("s", "seek", float(index), 1.0, ("d", "arm 0"))
        assert [span.ts for span in tracer.spans] == [
            float(index) for index in range(total)
        ]

    def test_max_spans_counts_buffered_spans(self):
        # The cap must bind while spans are still staged as raw tuples,
        # long before a drain.
        cap = 3
        tracer = Tracer(max_spans=cap)
        for index in range(10):
            tracer.span("s", "seek", float(index), 1.0, ("d", "arm 0"))
        assert tracer.dropped_spans == 7
        assert len(tracer.spans) == cap

    def test_store_after_buffering_keeps_order(self):
        # merge_payload() appends prebuilt Spans; any staged records
        # must land first so recording order is preserved.
        tracer = Tracer()
        tracer.span("a", "seek", 0, 1, ("d", "arm 0"))
        tracer._store(Span("b", "seek", 1, 1, ("d", "arm 0")))
        tracer.span("c", "seek", 2, 1, ("d", "arm 0"))
        assert [span.name for span in tracer.spans] == ["a", "b", "c"]

    def test_payload_includes_staged_spans(self):
        tracer = Tracer()
        tracer.span("s", "seek", 0, 1, ("d", "arm 0"))
        assert len(tracer.payload()["spans"]) == 1

    def test_clear_resets_staged_records(self):
        tracer = Tracer()
        tracer.span("s", "seek", 0, 1, ("d", "arm 0"))
        tracer.clear()
        assert tracer._buffered == 0
        assert tracer.spans == []

    def test_exporters_can_append_to_spans(self):
        # The export pipeline appends recovered open spans to the live
        # list; the property must hand out the real store, not a copy.
        tracer = Tracer()
        tracer.span("a", "seek", 0, 1, ("d", "arm 0"))
        tracer.spans.append(Span("b", "seek", 1, 1, ("d", "arm 0")))
        assert [span.name for span in tracer.spans] == ["a", "b"]


class TestNullTracer:
    def test_disabled_and_inert(self):
        null = NullTracer()
        assert null.enabled is False
        null.span("s", "seek", 0, 1, ("d", "arm 0"))
        null.instant("i", 0, ("d", "arm 0"))
        with null.scope("run"):
            pass
        null.telemetry.counter("x").inc()
        null.telemetry.histogram("y").observe(1.0)
        assert null.spans == []
        assert null.spans_by_category() == {}
        assert null.tracks() == []
        assert null.payload()["spans"] == []

    def test_singleton_default(self):
        assert current_session().tracer is NULL_TRACER


class TestDiscovery:
    def test_tracing_installs_and_restores(self):
        before = current_session().tracer
        with session(tracer=Tracer()) as s:
            assert current_session().tracer is s.tracer
            assert s.tracer.enabled
        assert current_session().tracer is before


def test_phase_names_are_the_papers_decomposition():
    # The paper's six-phase decomposition plus the fault layer's retry
    # revolutions (media re-reads after an injected error).
    assert PHASES == (
        "queue", "seek", "rotation", "transfer", "cache", "rebuild",
        "retry",
    )
