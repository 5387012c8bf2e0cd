"""Cross-process telemetry collection through the experiment executor.

A multi-worker ``sweep`` under an ambient tracer must (a) return the
same results as the serial path and (b) deliver every worker's spans
and telemetry to the parent tracer, merged in job order.
"""

import pytest

from repro.experiments.executor import Job, sweep
from repro.obs.session import current_session, session
from repro.obs.tracer import Tracer

pytestmark = pytest.mark.bench_smoke


def traced_job(tag, count):
    """Module-level (picklable) job that records spans and telemetry."""
    tracer = current_session().tracer
    for index in range(count):
        tracer.span(
            "work", "transfer", float(index), 1.0, (tag, "worker")
        )
    tracer.telemetry.counter("jobs_completed_total").inc()
    tracer.telemetry.histogram("job_count", buckets=(1.0, 4.0)).observe(count)
    return f"{tag}:{count}"


JOBS = [
    Job(traced_job, ("alpha", 3), key="alpha"),
    Job(traced_job, ("beta", 2), key="beta"),
    Job(traced_job, ("gamma", 4), key="gamma"),
]


class TestWorkerTelemetryMerge:
    def test_serial_sweep_observed_directly(self):
        tracer = Tracer()
        with session(tracer=tracer):
            results = sweep(JOBS, n_workers=1)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert len(tracer.spans) == 9
        assert tracer.telemetry.counter("jobs_completed_total").value == 3

    def test_parallel_sweep_merges_in_job_order(self):
        tracer = Tracer()
        with session(tracer=tracer):
            results = sweep(JOBS, n_workers=2)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert len(tracer.spans) == 9
        # Merge follows job order, not completion order.
        processes = [process for process, _ in tracer.tracks()]
        assert processes == ["alpha", "beta", "gamma"]
        families = tracer.telemetry.snapshot()["families"]
        assert families["jobs_completed_total"]["series"][0]["value"] == 3
        (job_count,) = families["job_count"]["series"]
        assert (job_count["count"], job_count["sum"]) == (3, 9)
        assert job_count["counts"] == [0, 3, 0]

    def test_parallel_matches_serial_telemetry(self):
        serial = Tracer()
        with session(tracer=serial):
            sweep(JOBS, n_workers=1)
        parallel = Tracer()
        with session(tracer=parallel):
            sweep(JOBS, n_workers=2)
        assert parallel.telemetry.snapshot() == serial.telemetry.snapshot()
        assert [s.to_tuple() for s in parallel.spans] == [
            s.to_tuple() for s in serial.spans
        ]

    def test_untraced_parallel_sweep_untouched(self):
        results = sweep(JOBS, n_workers=2)
        assert results == ["alpha:3", "beta:2", "gamma:4"]
        assert current_session().tracer.spans == []
