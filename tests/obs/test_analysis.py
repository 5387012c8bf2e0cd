"""Tests for post-hoc trace analytics (repro.obs.analysis).

The end-to-end classes carry the subsystem's acceptance criteria:
per-request span sums must equal the RequestCollector's response times
*exactly* (zero tolerance, bit for bit), and bottleneck attribution on
the HC-SD baseline must name rotational latency as the top non-queue
phase — the paper's §7.1 finding recovered from the trace alone.
"""

import pytest

from repro.experiments.bottleneck import _scaled_job
from repro.experiments.configs import build_hcsd_system, build_md_system
from repro.experiments.runner import run_trace
from repro.obs.analysis import (
    RequestBreakdown,
    TraceAnalysis,
    analyze,
    bottleneck_ranking,
    crosscheck_scaling,
    depth_timeline,
    phase_totals,
    queue_depth_timelines,
    reconcile_internal,
    reconcile_with_collector,
    request_breakdowns,
    track_utilization,
)
from repro.obs.session import session
from repro.obs.tracer import Span, Tracer
from repro.sim.engine import Environment
from repro.workloads.commercial import COMMERCIAL_WORKLOADS


def work(cat, ts, dur, process="drive", thread="arm 0", req=None):
    args = {"req": req} if req is not None else None
    return Span(cat, cat, ts, dur, (process, thread), args)


def request_spans(process, req, arrival, queue_ms, phases):
    """Queue span + service phase spans, laid out back to back."""
    spans = [
        Span("wait", "queue", arrival, queue_ms, (process, "queue"),
             {"req": req})
    ]
    cursor = arrival + queue_ms
    for cat, dur in phases:
        spans.append(
            Span(cat, cat, cursor, dur, (process, "arm 0"), {"req": req})
        )
        cursor += dur
    return spans


class TestTrackUtilization:
    def test_overlapping_spans_coalesced(self):
        spans = [work("seek", 0.0, 10.0), work("rotation", 5.0, 10.0)]
        (track,) = track_utilization(spans)
        assert track.busy_ms == 15.0
        assert track.utilization == 1.0
        assert track.idle_gaps == []

    def test_queue_and_array_do_not_count_as_busy(self):
        spans = [
            work("seek", 0.0, 2.0),
            work("queue", 0.0, 50.0),
            Span("env", "array", 0.0, 50.0, ("sys", "io"), None),
        ]
        tracks = track_utilization(spans)
        assert [t.thread for t in tracks] == ["arm 0"]
        assert tracks[0].busy_ms == 2.0
        # ...but they do extend the global window.
        assert tracks[0].window_ms == 50.0

    def test_idle_gaps_include_lead_in_and_tail_out(self):
        spans = [work("seek", 5.0, 5.0), work("transfer", 15.0, 5.0)]
        (track,) = track_utilization(spans, window=(0.0, 30.0))
        assert track.idle_gaps == [5.0, 5.0, 10.0]
        assert track.idle_ms == 20.0
        histogram = track.idle_gap_histogram(edges=[6.0])
        assert histogram.counts == [2, 1]

    def test_empty_window(self):
        (track,) = track_utilization(
            [work("seek", 0.0, 1.0)], window=(3.0, 3.0)
        )
        assert track.utilization == 0.0

    def test_tracks_sorted_by_process_then_thread(self):
        spans = [
            work("seek", 0.0, 1.0, process="b"),
            work("seek", 0.0, 1.0, process="a", thread="arm 1"),
            work("seek", 0.0, 1.0, process="a", thread="arm 0"),
        ]
        order = [(t.process, t.thread) for t in track_utilization(spans)]
        assert order == [("a", "arm 0"), ("a", "arm 1"), ("b", "arm 0")]


class TestDepthTimeline:
    def test_nested_intervals(self):
        timeline = depth_timeline([(0, 10), (2, 8), (4, 6)])
        assert timeline.max_depth == 3
        assert timeline.intervals == 3
        assert timeline.mean_depth == pytest.approx(1.8)

    def test_empty(self):
        timeline = depth_timeline([])
        assert timeline.max_depth == 0
        assert timeline.mean_depth == 0.0

    def test_depth_returns_to_zero(self):
        timeline = depth_timeline([(0, 5), (3, 9)])
        assert timeline.steps[-1] == (9, 0)

    def test_queue_timelines_grouped_by_process(self):
        spans = [
            work("queue", 0.0, 4.0, process="d1", req=0),
            work("queue", 1.0, 2.0, process="d1", req=1),
            work("queue", 0.0, 1.0, process="d2", req=0),
        ]
        timelines = queue_depth_timelines(spans)
        assert sorted(timelines) == ["d1", "d2"]
        assert timelines["d1"].max_depth == 2
        assert timelines["d2"].max_depth == 1


class TestRequestBreakdowns:
    def test_single_request_reassembled(self):
        spans = request_spans(
            "d", 7, arrival=1.0, queue_ms=2.0,
            phases=[("overhead", 0.1), ("seek", 3.0),
                    ("rotation", 4.0), ("transfer", 0.9)],
        )
        (breakdown,) = request_breakdowns(spans)
        assert breakdown.req == 7
        assert breakdown.arrival == 1.0
        assert breakdown.service_start == 3.0
        assert breakdown.queue_ms == 2.0
        assert breakdown.phases == {
            "overhead": 0.1, "seek": 3.0, "rotation": 4.0,
            "transfer": 0.9,
        }
        assert breakdown.service_ms == pytest.approx(8.0)
        assert breakdown.response_ms == pytest.approx(10.0)

    def test_service_without_queue_span_is_skipped(self):
        spans = [work("seek", 0.0, 1.0, req=3)]
        assert request_breakdowns(spans) == []

    def test_rebuild_spans_not_attributed_to_requests(self):
        spans = request_spans(
            "d", 1, arrival=0.0, queue_ms=1.0, phases=[("seek", 2.0)]
        )
        spans.append(work("rebuild", 0.0, 99.0, req=1))
        (breakdown,) = request_breakdowns(spans)
        assert "rebuild" not in breakdown.phases
        assert breakdown.service_ms == 2.0

    def test_ordered_by_service_start(self):
        spans = request_spans(
            "d", 2, arrival=5.0, queue_ms=0.0, phases=[("seek", 1.0)]
        ) + request_spans(
            "d", 1, arrival=0.0, queue_ms=0.0, phases=[("seek", 1.0)]
        )
        assert [b.req for b in request_breakdowns(spans)] == [1, 2]

    def test_exact_sum_uses_recorded_order(self):
        # Left-to-right float addition is order-sensitive; the exact
        # reconstruction must sum in span order, not category order.
        phases = [("seek", 0.1), ("rotation", 0.2), ("transfer", 0.3)]
        spans = request_spans("d", 0, 0.0, 0.0, phases)
        (breakdown,) = request_breakdowns(spans)
        assert breakdown.service_ms == ((0.1 + 0.2) + 0.3)


class TestBottleneckRanking:
    def test_ranking_and_exclusion(self):
        totals = {"queue": 50.0, "rotation": 30.0, "seek": 20.0,
                  "array": 999.0}
        ranking = bottleneck_ranking(totals)
        assert ranking == [
            ("queue", 50.0), ("rotation", 30.0), ("seek", 20.0)
        ]

    def test_ties_break_alphabetically(self):
        ranking = bottleneck_ranking({"b": 1.0, "a": 1.0})
        assert ranking == [("a", 1.0), ("b", 1.0)]

    def test_phase_totals_skip_instants(self):
        spans = [
            work("seek", 0.0, 2.0),
            Span("mark", "instant", 1.0, None, ("d", "arm 0"), None),
        ]
        assert phase_totals(spans) == {"seek": 2.0}

    def test_attribution_properties(self):
        spans = [
            work("queue", 0.0, 50.0, req=0),
            work("overhead", 0.0, 40.0, req=0),
            work("rotation", 0.0, 30.0, req=0),
            work("seek", 0.0, 10.0, req=0),
        ]
        attribution = analyze_spans(spans).attribution
        assert attribution.top_phase == "queue"
        assert attribution.top_service_phase == "rotation"
        assert attribution.share("rotation") == pytest.approx(30 / 130)
        assert attribution.share("missing") == 0.0


def analyze_spans(spans):
    return TraceAnalysis(spans)


class TestScopes:
    def test_scope_labels_with_slashes_survive(self):
        # Run labels like the paper's "(1/2)S" scaling points and the
        # RPM study's "HC-SD/7200" contain slashes; only the trailing
        # component label is stripped.
        spans = [
            work("seek", 0.0, 1.0, process="(1/2)S/barracuda"),
            work("seek", 0.0, 1.0, process="HC-SD/7200-ws/barracuda"),
            work("seek", 0.0, 1.0, process="unscoped"),
        ]
        assert analyze_spans(spans).scopes == [
            "(1/2)S", "HC-SD/7200-ws", "unscoped"
        ]

    def test_crosscheck_from_scaling_scopes(self):
        spans = []
        for index in range(4):
            spans.append(Span("req", "array", 0.0, 10.0,
                              ("(1/2)S/sys", "io"), None))
            spans.append(Span("req", "array", 0.0, 4.0,
                              ("(1/2)R/sys", "io"), None))
        crosscheck = crosscheck_scaling(spans)
        assert crosscheck is not None
        assert crosscheck.half_seek_mean_ms == pytest.approx(10.0)
        assert crosscheck.half_rotation_mean_ms == pytest.approx(4.0)
        assert crosscheck.rotation_is_primary

    def test_crosscheck_requires_both_scopes(self):
        spans = [Span("req", "array", 0.0, 1.0, ("(1/2)S/sys", "io"),
                      None)]
        assert crosscheck_scaling(spans) is None

    def test_filter_narrows_to_prefix(self):
        spans = [
            work("seek", 0.0, 1.0, process="MD-ws/d0"),
            work("seek", 0.0, 2.0, process="HC-SD-ws/d0"),
        ]
        narrowed = analyze_spans(spans).filter("HC-SD")
        assert len(narrowed.spans) == 1
        assert narrowed.attribution.ranking == [("seek", 2.0)]


class TestReconciliation:
    def test_exact_match(self):
        spans = request_spans("d", 0, 0.0, 1.0, [("seek", 2.0)])
        report = reconcile_with_collector(
            request_breakdowns(spans), [3.0]
        )
        assert report.exact
        assert report.ok
        assert "exact" in report.summary()

    def test_count_mismatch_is_a_problem(self):
        report = reconcile_with_collector([], [1.0, 2.0])
        assert not report.ok
        assert "2 reference" in report.problems[0]

    def test_divergence_beyond_tolerance(self):
        spans = request_spans("d", 0, 0.0, 1.0, [("seek", 2.0)])
        breakdowns = request_breakdowns(spans)
        failed = reconcile_with_collector(breakdowns, [3.5])
        assert not failed.ok and not failed.exact
        within = reconcile_with_collector(
            breakdowns, [3.5], tolerance_ms=1.0
        )
        assert within.ok and not within.exact
        assert within.max_abs_error_ms == pytest.approx(0.5)

    def test_internal_reconciliation_matches_envelopes(self):
        spans = request_spans("scope/d", 0, 0.0, 1.0, [("seek", 2.0)])
        spans.append(Span("req", "array", 0.0, 3.0, ("scope/sys", "io"),
                          None))
        (report,) = reconcile_internal(spans)
        assert report.label == "scope"
        assert report.exact

    def test_internal_skips_fanout_scopes(self):
        # Two physical slices per logical request: counts differ, the
        # scope is legitimately skipped rather than failed.
        spans = (
            request_spans("raid/d0", 0, 0.0, 0.0, [("seek", 1.0)])
            + request_spans("raid/d1", 0, 0.0, 0.0, [("seek", 1.0)])
        )
        spans.append(Span("req", "array", 0.0, 1.0, ("raid/sys", "io"),
                          None))
        assert reconcile_internal(spans) == []


class TestEndToEndExactness:
    """The acceptance criteria, against live simulation runs."""

    def traced_run(self, build, workload_name="websearch", requests=300):
        workload = COMMERCIAL_WORKLOADS[workload_name]
        trace = workload.generate(requests)
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            run = run_trace(env, build(env, workload), trace)
        return tracer, run

    def test_hcsd_span_sums_equal_collector_exactly(self):
        tracer, run = self.traced_run(build_hcsd_system)
        analysis = analyze(tracer)
        report = reconcile_with_collector(
            analysis.breakdowns, run.collector.response_times
        )
        assert report.exact, report.summary()
        assert report.max_abs_error_ms == 0.0
        assert report.requests == run.requests

    def test_md_span_sums_equal_collector_exactly(self):
        tracer, run = self.traced_run(build_md_system)
        analysis = analyze(tracer)
        report = reconcile_with_collector(
            analysis.breakdowns, run.collector.response_times
        )
        assert report.exact, report.summary()

    def test_hcsd_baseline_bottleneck_is_rotation(self):
        tracer, _ = self.traced_run(build_hcsd_system)
        attribution = analyze(tracer).attribution
        assert attribution.top_service_phase == "rotation"
        ranked = [category for category, _ in attribution.ranking]
        assert ranked.index("rotation") < ranked.index("seek")

    def test_internal_reconciliation_exact_on_live_run(self):
        tracer, run = self.traced_run(build_hcsd_system)
        reports = analyze(tracer).reconcile()
        assert reports, "expected at least one 1:1 scope"
        assert all(report.exact for report in reports)
        assert sum(report.requests for report in reports) == run.requests

    def test_scaling_crosscheck_from_bottleneck_runs(self):
        workload = COMMERCIAL_WORKLOADS["websearch"]
        tracer = Tracer()
        with session(tracer=tracer):
            _scaled_job(workload, 200, "(1/2)S", 0.5, 1.0)
            _scaled_job(workload, 200, "(1/2)R", 1.0, 0.5)
        crosscheck = analyze(tracer).scaling_crosscheck
        assert crosscheck is not None
        assert crosscheck.rotation_is_primary

    def test_per_arm_utilization_present(self):
        tracer, _ = self.traced_run(build_hcsd_system)
        tracks = analyze(tracer).utilization
        assert tracks
        assert all(0.0 <= track.utilization <= 1.0 for track in tracks)
        assert any(track.busy_ms > 0 for track in tracks)

    def test_queue_depth_bounded_by_requests(self):
        tracer, run = self.traced_run(build_hcsd_system)
        timelines = analyze(tracer).queue_depth
        assert timelines
        for timeline in timelines.values():
            assert 0 < timeline.max_depth <= run.requests
            assert timeline.mean_depth >= 0.0
