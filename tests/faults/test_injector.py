"""Tests for replaying fault plans against drives and arrays."""

import pytest

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive
from repro.disk.scheduler import FCFSScheduler
from repro.faults.errors import FaultInjectionError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultEvent, FaultPlan
from repro.raid.array import DiskArray
from repro.raid.layout import Raid5Layout
from repro.sim.engine import Environment


def plan_of(*events):
    return FaultPlan(list(events))


class TestTargets:
    def test_requires_array_or_drives(self):
        env = Environment()
        with pytest.raises(ValueError, match="array or drives"):
            FaultInjector(env, FaultPlan.empty())

    def test_empty_plan_schedules_nothing(self):
        env = Environment()
        injector = FaultInjector(env, FaultPlan.empty(), drives=[object()])
        assert injector.process is None
        env.run()
        assert injector.applied == []

    def test_bad_drive_map_rejected(self):
        env = Environment()
        with pytest.raises(ValueError, match="drive_map"):
            FaultInjector(env, FaultPlan.empty(), drives=[object()],
                          drive_map="wrap")


class TestMediaEvents:
    def test_arms_fault_on_drive(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=2.0, kind="transient", lba=50)),
            drives=[drive],
        )
        env.run()
        assert len(injector.applied) == 1
        assert len(drive._armed_faults) == 1
        assert drive._armed_faults[0].lba == 50

    def test_fires_at_the_scheduled_instant(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        fired = []
        original = drive.inject_media_error

        def spy(**kwargs):
            fired.append(env.now)
            return original(**kwargs)

        drive.inject_media_error = spy
        FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=7.25, kind="latent")),
            drives=[drive],
        )
        env.run()
        assert fired == [7.25]

    def test_lba_beyond_capacity_skipped_when_lenient(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        huge = drive.geometry.total_sectors + 1
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="transient", lba=huge)),
            drives=[drive],
            strict=False,
        )
        env.run()
        assert injector.applied == []
        assert "capacity" in injector.skipped[0][1]

    def test_strict_mode_raises_on_inapplicable(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="arm_failure", arm=1)),
            drives=[drive],
        )
        with pytest.raises(FaultInjectionError, match="arm"):
            env.run()

    def test_kinds_filter_is_silent_even_in_strict(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="arm_failure", arm=1)),
            drives=[drive],
            kinds=("transient", "latent"),
            strict=True,
        )
        env.run()
        assert injector.applied == []
        assert injector.skipped[0][1] == "kind filtered out"

    def test_modulo_drive_map_wraps(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="transient", drive=3)),
            drives=[drive],
            drive_map="modulo",
        )
        env.run()
        assert len(injector.applied) == 1
        assert len(drive._armed_faults) == 1

    def test_strict_drive_map_rejects_out_of_range(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="transient", drive=3)),
            drives=[drive],
            strict=False,
        )
        env.run()
        assert injector.applied == []
        assert "out of range" in injector.skipped[0][1]


class TestArmEvents:
    def test_deconfigures_parallel_disk_arm(self, tiny_spec):
        env = Environment()
        drive = ParallelDisk(
            env, tiny_spec.with_actuators(4),
            config=DashConfig(arm_assemblies=4),
        )
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=3.0, kind="arm_failure", arm=2)),
            drives=[drive],
        )
        env.run()
        assert len(injector.applied) == 1
        assert drive.arms[2].failed
        assert drive.healthy_arm_count == 3

    def test_last_arm_protected(self, tiny_spec):
        env = Environment()
        drive = ParallelDisk(env, tiny_spec, config=DashConfig())
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="arm_failure", arm=0)),
            drives=[drive],
            strict=False,
        )
        env.run()
        assert injector.applied == []
        assert "last healthy arm" in injector.skipped[0][1]


def build_array(env, tiny_spec, disks=4):
    members = [
        ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        for _ in range(disks)
    ]
    return DiskArray(
        env, members, Raid5Layout(disks, 50_000, stripe_unit=2048)
    )


class TestArrayEvents:
    def test_drive_failure_and_spare_heal(self, tiny_spec):
        env = Environment()
        array = build_array(env, tiny_spec)
        spares = []

        def factory():
            spare = ConventionalDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            spares.append(spare)
            return spare

        injector = FaultInjector(
            env,
            plan_of(
                FaultEvent(time_ms=5.0, kind="drive_failure", drive=1),
                FaultEvent(time_ms=10.0, kind="spare_arrival", drive=1),
            ),
            array=array,
            spare_factory=factory,
        )
        env.run()
        assert len(injector.applied) == 2
        assert len(injector.rebuilds) == 1
        assert array.failed_disk is None
        assert array.drives[1] is spares[0]

    def test_spare_without_degradation_skipped(self, tiny_spec):
        env = Environment()
        array = build_array(env, tiny_spec)
        injector = FaultInjector(
            env,
            plan_of(FaultEvent(time_ms=1.0, kind="spare_arrival")),
            array=array,
            spare_factory=lambda: ConventionalDrive(env, tiny_spec),
            strict=False,
        )
        env.run()
        assert injector.applied == []
        assert "not degraded" in injector.skipped[0][1]

    def test_spare_requires_factory(self, tiny_spec):
        env = Environment()
        array = build_array(env, tiny_spec)
        injector = FaultInjector(
            env,
            plan_of(
                FaultEvent(time_ms=1.0, kind="drive_failure", drive=0),
                FaultEvent(time_ms=2.0, kind="spare_arrival"),
            ),
            array=array,
            strict=False,
        )
        env.run()
        assert len(injector.applied) == 1
        assert "spare_factory" in injector.skipped[0][1]

    def test_media_faults_target_live_members(self, tiny_spec):
        # After a rebuild swaps a member, later media events must hit
        # the replacement, not the dead drive.
        env = Environment()
        array = build_array(env, tiny_spec)
        replacement = ConventionalDrive(
            env, tiny_spec, scheduler=FCFSScheduler()
        )
        injector = FaultInjector(
            env,
            plan_of(
                FaultEvent(time_ms=1.0, kind="drive_failure", drive=2),
                FaultEvent(time_ms=2.0, kind="spare_arrival"),
                FaultEvent(time_ms=100_000.0, kind="transient", drive=2),
            ),
            array=array,
            spare_factory=lambda: replacement,
        )
        env.run()
        assert len(injector.applied) == 3
        assert len(replacement._armed_faults) == 1


class TestObservability:
    def test_injection_and_deconfigure_emit_telemetry(self, tiny_spec):
        from repro.obs.session import session
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            drive = ParallelDisk(
                env, tiny_spec.with_actuators(2),
                config=DashConfig(arm_assemblies=2),
            )
            FaultInjector(
                env,
                plan_of(
                    FaultEvent(time_ms=1.0, kind="transient"),
                    FaultEvent(time_ms=2.0, kind="arm_failure", arm=1),
                ),
                drives=[drive],
            )
            env.run()
        counter = tracer.telemetry.counter
        injected = counter("repro_faults_injected_total", labels=("kind",))
        assert injected.labels(kind="transient").value == 1
        assert injected.labels(kind="arm_failure").value == 1
        assert counter("repro_faults_armed_total").value == 1
        assert counter("repro_arms_deconfigured_total").value == 1
        instants = [s.name for s in tracer.spans if s.is_instant]
        assert "fault-transient" in instants
        assert "arm-deconfigured" in instants
