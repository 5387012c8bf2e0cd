"""Tests for the queue-scheduling policies."""

import random

import pytest

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.request import IORequest
from repro.disk.scheduler import (
    DEFAULT_WINDOW,
    CLookScheduler,
    FCFSScheduler,
    SPTFScheduler,
    SSTFScheduler,
    SchedulingContext,
    VScanScheduler,
    make_scheduler,
)
from repro.sim.engine import Environment


def request(lba, arrival):
    return IORequest(lba=lba, size=8, is_read=True, arrival_time=arrival)


def context(current=100, positioning=None):
    return SchedulingContext(
        current_cylinder=current,
        cylinder_of=lambda r: r.lba,  # tests use lba == cylinder
        positioning_time=positioning,
    )


class TestFCFS:
    def test_picks_earliest_arrival(self):
        pending = [request(5, 3.0), request(9, 1.0), request(2, 2.0)]
        choice = FCFSScheduler().select(pending, context())
        assert choice.arrival_time == 1.0

    def test_ties_broken_by_request_id(self):
        first = request(5, 1.0)
        second = request(9, 1.0)
        choice = FCFSScheduler().select([second, first], context())
        assert choice is first

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError):
            FCFSScheduler().select([], context())


class TestSSTF:
    def test_picks_nearest_cylinder(self):
        pending = [request(50, 0), request(95, 1), request(300, 2)]
        choice = SSTFScheduler().select(pending, context(current=100))
        assert choice.lba == 95

    def test_distance_tie_broken_by_arrival(self):
        early = request(90, 0.0)
        late = request(110, 1.0)
        choice = SSTFScheduler().select([late, early], context(current=100))
        assert choice is early


class TestSPTF:
    def test_requires_estimator(self):
        with pytest.raises(ValueError):
            SPTFScheduler().select([request(1, 0)], context())

    def test_picks_minimum_positioning(self):
        costs = {10: 5.0, 20: 1.0, 30: 3.0}
        pending = [request(lba, 0) for lba in costs]
        choice = SPTFScheduler().select(
            pending, context(positioning=lambda r: costs[r.lba])
        )
        assert choice.lba == 20


class TestSPTFBatchContract:
    def test_per_request_context_derives_the_batch(self):
        costs = {10: 5.0, 20: 1.0, 30: 3.0}
        pending = [request(lba, 0) for lba in costs]
        only_per_request = context(positioning=lambda r: costs[r.lba])
        assert only_per_request.positioning_times(pending) == [5.0, 1.0, 3.0]
        choice = SPTFScheduler().select(pending, only_per_request)
        assert choice.lba == 20

    def test_derived_batch_keeps_the_tie_break(self):
        late = request(10, 2.0)
        early = request(20, 1.0)
        pending = [late, early, request(30, 0.5)]
        costs = {10: 1.0, 20: 1.0, 30: 4.0}
        choice = SPTFScheduler().select(
            pending, context(positioning=lambda r: costs[r.lba])
        )
        assert choice is early

    def test_batch_called_once_per_decision_over_the_window(self):
        calls = []

        def batch(candidates):
            calls.append(list(candidates))
            return [float(r.lba) for r in candidates]

        pending = [request(lba, index) for index, lba in
                   enumerate([30, 20, 40, 10])]
        batch_only = SchedulingContext(
            current_cylinder=0,
            cylinder_of=lambda r: r.lba,
            positioning_times=batch,
        )
        choice = SPTFScheduler(window=3).select(pending, batch_only)
        assert choice.lba == 20
        assert calls == [pending[:3]]

    def test_singleton_queue_skips_pricing(self):
        def batch(candidates):
            raise AssertionError("a forced choice needs no estimate")

        only = request(7, 0.0)
        batch_only = SchedulingContext(
            current_cylinder=0,
            cylinder_of=lambda r: r.lba,
            positioning_times=batch,
        )
        assert SPTFScheduler().select([only], batch_only) is only

    def test_recorded_queues_pick_the_same_request(self, tiny_spec):
        """Replay every queue an SA(4) drive meets under SPTF through a
        per-request-only context too: both must choose the same
        request."""
        checked = []

        class RecordingSPTF(SPTFScheduler):
            def select(self, pending, drive_context):
                choice = super().select(pending, drive_context)
                per_request = SchedulingContext(
                    current_cylinder=drive_context.current_cylinder,
                    cylinder_of=drive_context.cylinder_of,
                    positioning_time=drive_context.positioning_time,
                )
                assert super().select(pending, per_request) is choice
                if len(pending) > 1:
                    checked.append(len(pending))
                return choice

        env = Environment()
        drive = ParallelDisk(
            env,
            tiny_spec,
            config=DashConfig(arm_assemblies=4),
            scheduler=RecordingSPTF(),
        )
        rng = random.Random(11)
        limit = drive.geometry.total_sectors - 64
        for index in range(120):
            drive.submit(
                IORequest(
                    lba=rng.randrange(0, limit),
                    size=8,
                    is_read=rng.random() < 0.6,
                    arrival_time=0.0,
                )
            )
        env.run()
        assert drive.stats.requests_completed == 120
        assert len(checked) > 100
        assert max(checked) > DEFAULT_WINDOW


class TestCLook:
    def test_sweeps_upward_first(self):
        pending = [request(50, 0), request(150, 1), request(400, 2)]
        choice = CLookScheduler().select(pending, context(current=100))
        assert choice.lba == 150

    def test_wraps_to_lowest_when_nothing_ahead(self):
        pending = [request(10, 0), request(50, 1)]
        choice = CLookScheduler().select(pending, context(current=100))
        assert choice.lba == 10


class TestVScan:
    def test_prefers_current_direction(self):
        scheduler = VScanScheduler(r=0.5, cylinders=1000)
        # Establish upward direction.
        first = scheduler.select([request(150, 0)], context(current=100))
        assert first.lba == 150
        # 140 is slightly nearer but behind the sweep; 180 wins.
        choice = scheduler.select(
            [request(140, 1), request(180, 2)], context(current=150)
        )
        assert choice.lba == 180

    def test_r_zero_degenerates_to_sstf(self):
        scheduler = VScanScheduler(r=0.0)
        choice = scheduler.select(
            [request(140, 1), request(180, 2)], context(current=150)
        )
        assert choice.lba == 140

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            VScanScheduler(r=1.5)


class TestWindow:
    def test_window_limits_candidates(self):
        # The nearest request is outside the 2-deep window.
        scheduler = SSTFScheduler(window=2)
        pending = [request(500, 0), request(400, 1), request(100, 2)]
        choice = scheduler.select(pending, context(current=100))
        assert choice.lba == 400  # nearest within the window

    def test_unbounded_window(self):
        scheduler = SSTFScheduler(window=None)
        pending = [request(500, 0), request(400, 1), request(100, 2)]
        choice = scheduler.select(pending, context(current=100))
        assert choice.lba == 100

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            FCFSScheduler(window=0)


class TestFactory:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("fcfs", FCFSScheduler),
            ("sstf", SSTFScheduler),
            ("sptf", SPTFScheduler),
            ("clook", CLookScheduler),
            ("vscan", VScanScheduler),
        ],
    )
    def test_known_policies(self, name, cls):
        assert isinstance(make_scheduler(name), cls)

    def test_case_insensitive(self):
        assert isinstance(make_scheduler("SPTF"), SPTFScheduler)

    def test_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("elevator")

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("vscan", r=0.7)
        assert scheduler.r == 0.7
