"""The metrics subsystem's two core guarantees, checked end to end.

1. *Bit-identical figures*: running any study driver under an ambient
   :class:`MetricsRegistry` changes no reported number — metrics are
   recorded from wall-clock observations and never schedule engine
   events or read simulated time into the figures.
2. *Zero cost when disabled*: with the default ``NullMetrics``, the
   instrumented hot paths never even reach a registry accessor (every
   site is behind ``if metrics.enabled``), mirroring the zero-cost
   tracer contract.
"""

import pytest

from repro.obs.metrics import MetricsRegistry, NullMetrics
from repro.obs.run import TRACEABLE_EXPERIMENTS, figures_digest
from repro.obs.session import session

#: Every study driver whose figures the digest-equality check covers —
#: the four figure studies (rebuild is exercised separately by the
#: tracer suite and shares the same run_trace instrumentation).
STUDY_DRIVERS = ("limit_study", "parallel_study", "bottleneck",
                 "rpm_study")


class ExplodingMetrics(NullMetrics):
    """Disabled registry whose accessors must never be reached."""

    def _boom(self, *args, **kwargs):
        raise AssertionError(
            "metrics accessor called despite enabled=False"
        )

    counter = gauge = histogram = labels = _boom
    inc = dec = set = observe = _boom


class TestFiguresBitIdentical:
    @pytest.mark.parametrize("name", STUDY_DRIVERS)
    def test_metered_study_figures_identical(self, name):
        driver = TRACEABLE_EXPERIMENTS[name]
        figures, _ = driver(150, 1, 2)
        baseline = figures_digest(figures)
        registry = MetricsRegistry()
        with session(metrics=registry):
            metered, _ = driver(150, 1, 2)
        assert figures_digest(metered) == baseline
        # The run really was metered, not silently unobserved.
        assert registry.sample_count() > 0

    def test_streamed_replay_figures_identical(self, tmp_path):
        from repro.experiments.configs import build_hcsd_system
        from repro.experiments.runner import run_trace
        from repro.sim.engine import Environment
        from repro.workloads.commercial import WEBSEARCH
        from repro.workloads.streaming import StreamingTrace
        from repro.workloads.trace import save_trace

        path = tmp_path / "ws.trace.gz"
        save_trace(path, WEBSEARCH.generate(300))

        def replay():
            env = Environment()
            system = build_hcsd_system(env, WEBSEARCH)
            run = run_trace(
                env, system, StreamingTrace(path, chunk_requests=64)
            )
            return (
                run.mean_response_ms,
                run.percentile(90),
                run.power.total_watts,
            )

        baseline = replay()
        registry = MetricsRegistry()
        with session(metrics=registry):
            metered = replay()
        assert metered == baseline
        chunks = registry.counter("repro_replay_chunks_total")
        assert chunks.value > 0


class TestZeroCostDisabled:
    def test_disabled_metrics_never_reached_in_memory_run(self):
        from repro.experiments.limit_study import run_limit_study

        with session(metrics=ExplodingMetrics()):
            result = run_limit_study(requests=120)
        assert result

    def test_disabled_metrics_never_reached_streamed(self, tmp_path):
        from repro.experiments.configs import build_hcsd_system
        from repro.experiments.runner import run_trace
        from repro.sim.engine import Environment
        from repro.workloads.commercial import WEBSEARCH
        from repro.workloads.streaming import StreamingTrace
        from repro.workloads.trace import save_trace

        path = tmp_path / "ws.trace.gz"
        save_trace(path, WEBSEARCH.generate(200))
        with session(metrics=ExplodingMetrics()):
            env = Environment()
            run = run_trace(
                env,
                build_hcsd_system(env, WEBSEARCH),
                StreamingTrace(path, chunk_requests=64),
            )
        assert run.mean_response_ms > 0
