"""The one ambient observability session (repro.obs.session)."""

import dataclasses

import pytest

from repro.chaos.failpoints import NULL_FAILPOINTS
from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosPlan
from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.session import Session, current_session, session
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.raid.array import DiskArray
from repro.raid.layout import JBODLayout
from repro.sim.engine import Environment


def _injector():
    return ChaosInjector(ChaosPlan.empty(), kill_mode="raise")


class TestAmbientSession:
    def test_default_session_is_all_null(self):
        active = current_session()
        assert active == Session()
        assert active.tracer is NULL_TRACER
        assert active.metrics is NULL_METRICS
        assert active.failpoints is NULL_FAILPOINTS
        assert not any(
            facility.enabled
            for facility in (
                active.tracer, active.metrics, active.failpoints
            )
        )

    def test_session_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            current_session().tracer = Tracer()

    def test_nested_session_inherits_what_it_does_not_override(self):
        registry, injector = MetricsRegistry(), _injector()
        tracer, inner_registry = Tracer(), MetricsRegistry()
        with session(metrics=registry, failpoints=injector) as outer:
            with session(tracer=tracer) as inner:
                assert current_session() is inner
                assert inner.tracer is tracer
                assert inner.metrics is registry
                assert inner.failpoints is injector
                with session(metrics=inner_registry) as innermost:
                    assert innermost.tracer is tracer
                    assert innermost.metrics is inner_registry
                    assert innermost.failpoints is injector
                assert current_session() is inner
            assert current_session() is outer
            assert outer.tracer is NULL_TRACER
        assert current_session() == Session()

    def test_restores_previous_session_on_exception(self):
        with session(metrics=MetricsRegistry()) as outer:
            with pytest.raises(RuntimeError, match="boom"):
                with session(tracer=Tracer(), failpoints=_injector()):
                    raise RuntimeError("boom")
            assert current_session() is outer
        assert current_session() == Session()


def _write(drive, count):
    limit = drive.geometry.total_sectors - 8
    for index in range(count):
        drive.submit(
            IORequest(
                lba=(index * 200_003) % limit,
                size=8,
                is_read=False,
                arrival_time=index * 0.5,
            )
        )


def _engine_runs(tracer):
    families = tracer.telemetry.snapshot()["families"]
    runs = families.get("repro_engine_runs_total")
    return runs["series"][0]["value"] if runs else 0


class TestCaptureAtConstruction:
    def test_components_keep_the_session_they_were_built_in(
        self, tiny_spec
    ):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            drive = ConventionalDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            layout = JBODLayout([drive.geometry.total_sectors])
            array = DiskArray(env, [drive], layout)
            faults = FaultInjector(env, FaultPlan.empty(), array=array)
        assert drive.tracer is tracer
        assert array.tracer is tracer
        assert faults.tracer is tracer
        # Run after the block: still recorded into the captured tracer.
        _write(drive, 4)
        env.run()
        assert tracer.spans_by_category().get("seek", 0) > 0
        assert _engine_runs(tracer) == 1

    def test_a_later_session_does_not_reach_built_components(
        self, tiny_spec
    ):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        tracer = Tracer()
        with session(tracer=tracer):
            _write(drive, 4)
            env.run()
        assert drive.tracer is NULL_TRACER
        assert tracer.spans == []
        assert _engine_runs(tracer) == 0
