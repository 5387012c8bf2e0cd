"""The subsystem's two core guarantees, checked end to end.

1. *Bit-identical figures*: running an experiment under a tracer
   changes no reported number — spans are recorded prospectively and
   never schedule engine events.
2. *Zero cost when disabled*: with the default ``NullTracer``, the
   instrumented hot paths never even build span arguments (every site
   is behind ``if tracer.enabled``), so an untraced run does no
   observability work at all.
"""

import time

import pytest

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.obs.run import figures_digest, limit_study_figures
from repro.obs.session import session
from repro.obs.tracer import NullTracer, Tracer
from repro.sim.engine import Environment


def run_workload(tracer=None, requests=300):
    """One fixed-seed limit-study workload pass, optionally traced."""
    from repro.experiments.limit_study import run_limit_study
    from repro.workloads.commercial import COMMERCIAL_WORKLOADS

    selected = [COMMERCIAL_WORKLOADS["websearch"]]
    if tracer is None:
        results = run_limit_study(workloads=selected, requests=requests)
    else:
        with session(tracer=tracer):
            results = run_limit_study(
                workloads=selected, requests=requests
            )
    return figures_digest(limit_study_figures(results))


class TestBitIdenticalFigures:
    def test_traced_equals_untraced(self):
        untraced = run_workload()
        traced_tracer = Tracer()
        traced = run_workload(traced_tracer)
        assert traced == untraced
        assert traced_tracer.spans  # the run really was observed

    def test_null_traced_equals_untraced(self):
        assert run_workload(NullTracer()) == run_workload()

    def test_trace_experiment_digest_matches_untraced_run(self):
        from repro.experiments.limit_study import run_limit_study
        from repro.obs.run import trace_experiment

        run = trace_experiment("limit_study", requests=200, actuators=2)
        untraced = figures_digest(
            limit_study_figures(run_limit_study(requests=200))
        )
        assert run.figures_sha256 == untraced


class ExplodingTracer(NullTracer):
    """Disabled tracer whose recording methods must never be reached."""

    def span(self, name, cat, ts, dur, track, args=None):
        raise AssertionError("span() called despite enabled=False")

    def instant(self, name, ts, track, args=None):
        raise AssertionError("instant() called despite enabled=False")


class TestZeroCostDisabled:
    def drive_pass(self, tiny_spec, requests=40):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        limit = drive.geometry.total_sectors - 8
        for index in range(requests):
            drive.submit(
                IORequest(
                    lba=(index * 300_007) % limit,
                    size=8,
                    is_read=(index % 3 == 0),
                    arrival_time=index * 0.5,
                )
            )
        env.run()
        return env.now

    def test_disabled_tracer_never_called_on_hot_path(self, tiny_spec):
        with session(tracer=ExplodingTracer()):
            elapsed = self.drive_pass(tiny_spec)
        assert elapsed > 0

    def test_disabled_overhead_within_noise(self, tiny_spec):
        """Generous smoke bound: the guarded sites cost ~one attribute
        read each, so a disabled-tracer pass must land within ordinary
        run-to-run noise of the baseline (3x covers CI jitter)."""
        self.drive_pass(tiny_spec)  # warm caches / imports

        start = time.perf_counter()
        baseline_now = self.drive_pass(tiny_spec)
        baseline = time.perf_counter() - start

        start = time.perf_counter()
        with session(tracer=NullTracer()):
            disabled_now = self.drive_pass(tiny_spec)
        disabled = time.perf_counter() - start

        assert disabled_now == baseline_now  # same simulated timeline
        assert disabled < baseline * 3 + 0.05

    def test_simulated_timeline_identical_traced(self, tiny_spec):
        baseline = self.drive_pass(tiny_spec)
        tracer = Tracer()
        with session(tracer=tracer):
            traced = self.drive_pass(tiny_spec)
        assert traced == pytest.approx(baseline, abs=0.0)
        assert tracer.spans
