"""End-to-end tests for the instrumented simulation stack.

Covers the span streams each layer emits (drive phases, per-arm
attribution, SPTF decisions, array fan-out, rebuild progress), the
executor's cross-process telemetry merge, and the subsystem's two core
guarantees: tracing changes no figure bit, and a disabled tracer costs
nothing on the hot path.
"""

import pytest

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler, SPTFScheduler
from repro.obs.export import to_chrome_trace, validate_chrome_trace
from repro.obs.session import session
from repro.obs.tracer import Tracer
from repro.raid.array import DiskArray
from repro.raid.layout import Raid5Layout
from repro.sim.engine import Environment


def run_requests(env, device, requests):
    for request in requests:
        device.submit(request)
    env.run()


def spread_requests(device, count, stride=200_000, size=8):
    limit = device.geometry.total_sectors - size
    return [
        IORequest(
            lba=(index * stride) % limit,
            size=size,
            is_read=False,
            arrival_time=index * 0.5,
        )
        for index in range(count)
    ]


class TestDriveSpans:
    def test_phase_spans_cover_service_time(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            drive = ConventionalDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            run_requests(env, drive, spread_requests(drive, 6))
        counts = tracer.spans_by_category()
        for category in ("queue", "seek", "rotation", "transfer"):
            assert counts.get(category, 0) > 0, category
        assert validate_chrome_trace(to_chrome_trace(tracer)) == []

    def test_spans_attribute_requests(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            drive = ConventionalDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            run_requests(env, drive, spread_requests(drive, 3))
        seek = next(s for s in tracer.spans if s.cat == "seek")
        assert {"req", "lba", "sectors", "rw"} <= set(seek.args)

    def test_cache_hit_spans_and_counters(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            drive = ConventionalDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            first = IORequest(
                lba=100, size=8, is_read=True, arrival_time=0.0
            )
            second = IORequest(
                lba=100, size=8, is_read=True, arrival_time=50.0
            )
            run_requests(env, drive, [first, second])
        assert tracer.spans_by_category().get("cache", 0) >= 1
        counter = tracer.telemetry.counter
        assert counter("repro_cache_read_hits_total").value >= 1
        assert counter("repro_cache_read_misses_total").value >= 1

    def test_untraced_drive_records_nothing(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        assert drive.tracer.enabled is False


class TestParallelDiskSpans:
    def make_disk(self, env, tiny_spec, actuators=4):
        return ParallelDisk(
            env,
            tiny_spec,
            config=DashConfig(arm_assemblies=actuators),
            scheduler=SPTFScheduler(),
        )

    def test_per_arm_tracks(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            disk = self.make_disk(env, tiny_spec)
            run_requests(env, disk, spread_requests(disk, 24))
        threads = {thread for _, thread in tracer.tracks()}
        arms_used = {t for t in threads if t.startswith("arm ")}
        assert len(arms_used) >= 2  # SPTF spreads across actuators

    def test_arm_select_instants_annotated(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            disk = self.make_disk(env, tiny_spec)
            run_requests(env, disk, spread_requests(disk, 12))
        selects = [s for s in tracer.spans if s.name == "arm-select"]
        assert selects
        assert {"req", "arm", "seek_ms", "rotation_ms"} <= set(
            selects[0].args
        )
        family = tracer.telemetry.counter(
            "repro_arm_selections_total", labels=("arm",)
        )
        assert sum(arm.value for _, arm in family.series()) == 12


class TestArraySpans:
    def build_array(self, env, tiny_spec, disks=4):
        drives = [
            ConventionalDrive(
                env,
                tiny_spec,
                scheduler=FCFSScheduler(),
                label=f"member-{index}",
            )
            for index in range(disks)
        ]
        layout = Raid5Layout(disks, 2048 * 16, stripe_unit=2048)
        return DiskArray(env, drives, layout, label="test-array"), layout

    def test_logical_request_envelopes(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            array, layout = self.build_array(env, tiny_spec)

            def scenario():
                yield array.submit(
                    IORequest(
                        lba=0, size=8, is_read=True, arrival_time=env.now
                    )
                )

            env.process(scenario())
            env.run()
        envelopes = [s for s in tracer.spans if s.cat == "array"]
        assert envelopes
        assert envelopes[0].args["degraded"] is False

    def test_degraded_and_rebuild_spans(self, tiny_spec):
        tracer = Tracer()
        with session(tracer=tracer):
            env = Environment()
            array, layout = self.build_array(env, tiny_spec)
            array.fail_drive(1)
            replacement = ConventionalDrive(
                env,
                tiny_spec,
                scheduler=FCFSScheduler(),
                label="replacement",
            )

            def scenario():
                yield array.submit(
                    IORequest(
                        lba=0, size=8, is_read=True, arrival_time=env.now
                    )
                )
                yield array.rebuild(replacement)

            env.process(scenario())
            env.run()
        names = {s.name for s in tracer.spans}
        assert "degraded-map" in names
        assert "reconstruct" in names
        assert "rebuild-write" in names
        telemetry = tracer.telemetry
        degraded = telemetry.counter("repro_array_degraded_requests_total")
        assert degraded.value >= 1
        assert telemetry.counter("repro_rebuild_rows_total").value > 0
        progress = telemetry.gauge("repro_rebuild_progress").value
        assert progress == pytest.approx(1.0)


class TestScopedRuns:
    def test_identically_named_drives_get_distinct_tracks(self, tiny_spec):
        from repro.experiments.runner import run_trace
        from repro.raid.layout import JBODLayout
        from repro.workloads.trace import Trace

        def one_run(label):
            env = Environment()
            drive = ConventionalDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            system = DiskArray(
                env,
                [drive],
                JBODLayout([drive.geometry.total_sectors]),
                label=tiny_spec.name,
            )
            trace = Trace(
                [
                    IORequest(
                        lba=index * 100_000,
                        size=8,
                        is_read=False,
                        arrival_time=index * 1.0,
                    )
                    for index in range(4)
                ]
            )
            run_trace(env, system, trace, label=label)

        tracer = Tracer()
        with session(tracer=tracer):
            one_run("run-a")
            one_run("run-b")
        processes = {process for process, _ in tracer.tracks()}
        assert any(p.startswith("run-a/") for p in processes)
        assert any(p.startswith("run-b/") for p in processes)
