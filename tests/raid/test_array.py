"""Tests for the array controller."""

import pytest

from repro.disk.drive import ConventionalDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.faults.errors import DataLossError
from repro.raid.array import DiskArray
from repro.raid.layout import (
    ConcatLayout,
    JBODLayout,
    Raid0Layout,
    Raid5Layout,
)
from repro.sim.engine import Environment, Event


def build_array(tiny_spec, disks=2, layout_cls=Raid0Layout, **layout_kwargs):
    env = Environment()
    members = [
        ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
        for _ in range(disks)
    ]
    capacity = members[0].geometry.total_sectors
    if layout_cls is JBODLayout:
        layout = JBODLayout([capacity] * disks)
    else:
        layout = layout_cls(disks, capacity, **layout_kwargs)
    return env, DiskArray(env, members, layout)


class TestConstruction:
    def test_layout_disk_count_must_match(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        with pytest.raises(ValueError):
            DiskArray(env, [drive], Raid0Layout(2, 1000))

    def test_requires_drives(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            DiskArray(env, [], Raid0Layout(1, 1000))


class TestCompletion:
    def test_logical_request_completes_after_all_slices(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2, stripe_unit=16)
        # Spans the stripe boundary → two slices on two disks.
        request = IORequest(lba=8, size=16, is_read=True)
        event = array.submit(request)
        env.run()
        assert event.value is request
        assert request.completion_time is not None
        assert array.requests_completed == 1

    def test_on_complete_fires_for_logical_request(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2)
        seen = []
        array.on_complete.append(seen.append)
        request = IORequest(lba=0, size=8, is_read=True)
        array.submit(request)
        env.run()
        assert seen == [request]

    def test_response_reflects_critical_path(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2, stripe_unit=16)
        request = IORequest(lba=8, size=16, is_read=False)
        array.submit(request)
        env.run()
        # Both member drives serviced something.
        for drive in array.drives:
            assert drive.stats.requests_completed == 1
        assert request.response_time > 0

    def test_outstanding_tracks_inflight(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2)
        array.submit(IORequest(lba=0, size=8, is_read=True))
        assert array.outstanding == 1
        env.run()
        assert array.outstanding == 0


class TestJbodRouting:
    def test_source_disk_routing(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=3, layout_cls=JBODLayout)
        request = IORequest(lba=100, size=8, is_read=True, source_disk=2)
        array.submit(request)
        env.run()
        assert array.drives[2].stats.requests_completed == 1
        assert array.drives[0].stats.requests_completed == 0


class TestRaid5Writes:
    def test_write_touches_data_and_parity_disks(self, tiny_spec):
        env = Environment()
        members = [
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
            for _ in range(4)
        ]
        layout = Raid5Layout(
            4, members[0].geometry.total_sectors, stripe_unit=16
        )
        array = DiskArray(env, members, layout)
        request = IORequest(lba=0, size=16, is_read=False)
        array.submit(request)
        env.run()
        # RMW: data disk sees read+write, parity disk sees read+write.
        touched = [
            drive.stats.requests_completed for drive in array.drives
        ]
        assert sorted(touched, reverse=True)[:2] == [2, 2]
        assert sum(touched) == 4

    def test_read_touches_single_disk(self, tiny_spec):
        env = Environment()
        members = [
            ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
            for _ in range(4)
        ]
        layout = Raid5Layout(
            4, members[0].geometry.total_sectors, stripe_unit=16
        )
        array = DiskArray(env, members, layout)
        array.submit(IORequest(lba=0, size=8, is_read=True))
        env.run()
        assert (
            sum(d.stats.requests_completed for d in array.drives) == 1
        )


class TestAggregates:
    def test_stats_by_drive_shape(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2)
        array.submit(IORequest(lba=0, size=8, is_read=False))
        env.run()
        stats = array.stats_by_drive()
        assert len(stats) == 2
        assert {"label", "requests", "seek_ms"} <= set(stats[0])

    def test_total_sectors_transferred(self, tiny_spec):
        env, array = build_array(tiny_spec, disks=2, stripe_unit=16)
        array.submit(IORequest(lba=8, size=16, is_read=False))
        env.run()
        assert array.total_sectors_transferred() == 16


class ScriptedDrive:
    """Member stand-in: every slice takes ``delay`` ms and reports
    ``arm_id`` and ``seek_time`` as its measurements.

    Completion runs from a timeout callback, so the stand-in starts no
    process.  ``log`` keeps ``(submit time, lba, size, is_read)`` of
    each slice (the array recycles the slice objects themselves).
    """

    def __init__(self, env, delay, arm_id, capacity=10_000):
        self.env = env
        self.delay = delay
        self.arm_id = arm_id
        self.capacity = capacity
        self.label = f"scripted{arm_id}"
        self.log = []

    def submit(self, physical):
        env = self.env
        done = Event(env)
        self.log.append(
            (env.now, physical.lba, physical.size, physical.is_read)
        )

        def finish(_):
            physical.completion_time = env.now
            physical.seek_time = self.delay
            physical.arm_id = self.arm_id
            done.succeed(physical)

        env.timeout(self.delay).callbacks.append(finish)
        return done


def scripted_array(delays, layout):
    env = Environment()
    drives = [
        ScriptedDrive(env, delay, arm_id=index)
        for index, delay in enumerate(delays)
    ]
    return env, DiskArray(env, drives, layout)


class TestCountdown:
    """Multi-slice requests join by a per-request slice countdown."""

    @pytest.mark.parametrize(
        "delays,completes_at,arm",
        [
            ((1.0, 2.0, 3.0), 3.0, 2),  # the latest slice wins
            ((1.0, 3.0, 3.0), 3.0, 1),  # tie: the first in map order
            ((3.0, 3.0, 1.0), 3.0, 0),
        ],
    )
    def test_completes_at_last_slice_with_its_fields(
        self, delays, completes_at, arm
    ):
        env, array = scripted_array(
            delays, Raid0Layout(3, 10_000, stripe_unit=16)
        )
        seen = []
        array.on_complete.append(lambda request: seen.append(env.now))
        # Units 0, 1 and 2: one slice on each member, in disk order.
        request = IORequest(lba=8, size=40, is_read=True)
        event = array.submit(request)
        assert [len(drive.log) for drive in array.drives] == [1, 1, 1]
        env.run()
        assert event.value is request
        assert seen == [completes_at]
        assert request.completion_time == completes_at
        assert request.arm_id == arm
        assert request.seek_time == delays[arm]
        assert array.requests_completed == 1
        assert array.outstanding == 0

    def test_raid5_writes_issue_when_reads_drain(self):
        env, array = scripted_array(
            (2.0, 5.0, 7.0, 11.0), Raid5Layout(4, 10_000, stripe_unit=16)
        )
        request = IORequest(lba=0, size=16, is_read=False)
        array.submit(request)
        env.run()
        entries = sorted(
            (when, is_read, index)
            for index, drive in enumerate(array.drives)
            for when, _, _, is_read in drive.log
        )
        reads = [entry for entry in entries if entry[1]]
        writes = [entry for entry in entries if not entry[1]]
        assert [when for when, _, _ in reads] == [0.0, 0.0]
        drained = max(array.drives[index].delay for _, _, index in reads)
        # Phase 1 goes out at the instant the slower phase-0 read lands.
        assert [when for when, _, _ in writes] == [drained, drained]
        assert {index for *_, index in writes} == {
            index for *_, index in reads
        }
        assert request.completion_time == drained + drained

    def test_member_failure_aborts_once_and_late_slices_are_noops(self):
        env, array = scripted_array(
            (3.0, 3.0), Raid0Layout(2, 10_000, stripe_unit=16)
        )
        completed = []
        array.on_complete.append(completed.append)
        event = array.submit(IORequest(lba=8, size=16, is_read=True))
        outcomes = []
        event.callbacks.append(lambda fired: outcomes.append(fired.ok))
        env.timeout(1.0).callbacks.append(lambda _: array.fail_drive(0))
        env.run()
        assert outcomes == [False]
        assert isinstance(event.value, DataLossError)
        assert array.aborted_requests == 1
        assert array.requests_completed == 0
        assert completed == []
        # Both slices did reach their drives and finished late.
        assert [len(drive.log) for drive in array.drives] == [1, 1]
        assert env.now == 3.0


class TestNoProcessOnHealthyPath:
    @pytest.mark.parametrize(
        "layout,request_kwargs,slices",
        [
            (Raid0Layout(2, 10_000, stripe_unit=16), dict(lba=0, size=8), 1),
            (Raid0Layout(2, 10_000, stripe_unit=16), dict(lba=8, size=16), 2),
            (Raid5Layout(3, 10_000, stripe_unit=16), dict(lba=0, size=8), 1),
            (JBODLayout([10_000, 10_000]), dict(lba=0, size=8, source_disk=1),
             1),
            (ConcatLayout([5_000, 5_000]), dict(lba=8, size=8, source_disk=1),
             1),
        ],
        ids=["raid0-unit", "raid0-span", "raid5", "jbod", "concat"],
    )
    @pytest.mark.parametrize("is_read", [True, False])
    def test_submit_starts_no_process(
        self, forbid_process, layout, request_kwargs, slices, is_read
    ):
        env, array = scripted_array([1.0] * layout.disk_count, layout)
        request = IORequest(is_read=is_read, **request_kwargs)
        event = array.submit(request)
        env.run()
        assert event.value is request
        issued = sum(len(drive.log) for drive in array.drives)
        if isinstance(layout, Raid5Layout) and not is_read:
            assert issued == 4  # read-modify-write, two phases
        else:
            assert issued == slices
