"""Tests for freeblock scheduling on the conventional drive."""

import random

import pytest

from repro.disk.freeblock import FreeblockDrive
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler
from repro.sim.engine import Environment


@pytest.fixture
def setup(tiny_spec):
    env = Environment()
    drive = FreeblockDrive(env, tiny_spec, scheduler=FCFSScheduler())
    return env, drive


def foreground_stream(drive, count, spacing=15.0, seed=1):
    rng = random.Random(seed)
    limit = drive.geometry.total_sectors - 16
    return [
        IORequest(
            lba=rng.randrange(limit),
            size=8,
            is_read=False,
            arrival_time=index * spacing,
        )
        for index in range(count)
    ]


def background_near(drive, foreground, count, seed=2):
    """Background requests close (in cylinders) to the foreground mix,
    so excursions are cheap enough to fit rotational windows."""
    rng = random.Random(seed)
    return [
        IORequest(
            lba=max(0, fg.lba + rng.randrange(-2000, 2000)),
            size=8,
            is_read=False,
            background=True,
        )
        for fg, _ in zip(foreground * 10, range(count))
    ]


def run(env, drive, foreground, background):
    done = []
    drive.on_complete.append(done.append)
    for request in background:
        drive.submit(request)
    for request in foreground:
        drive.submit(request)
    env.run()
    return done


class TestValidation:
    def test_guard_must_be_non_negative(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            FreeblockDrive(env, tiny_spec, guard_ms=-1)

    def test_max_candidates_positive(self, tiny_spec):
        env = Environment()
        with pytest.raises(ValueError):
            FreeblockDrive(env, tiny_spec, max_candidates=0)

    def test_background_capacity_checked(self, setup):
        env, drive = setup
        huge = IORequest(
            lba=drive.geometry.total_sectors - 4,
            size=8,
            is_read=False,
            background=True,
        )
        with pytest.raises(ValueError):
            drive.submit(huge)


class TestFreeblockServicing:
    def test_background_serviced_in_windows(self, setup):
        env, drive = setup
        foreground = foreground_stream(drive, 60)
        background = background_near(drive, foreground, 20)
        run(env, drive, foreground, background)
        assert drive.freeblock_serviced > 0

    def test_foreground_latency_unchanged(self, tiny_spec):
        """The defining freeblock property: foreground response times
        are the same with and without background work."""
        def mean_foreground(with_background):
            env = Environment()
            drive = FreeblockDrive(
                env, tiny_spec, scheduler=FCFSScheduler()
            )
            foreground = foreground_stream(drive, 50)
            background = (
                background_near(drive, foreground, 15)
                if with_background
                else []
            )
            done = run(env, drive, foreground, background)
            fg = [r for r in done if not r.background]
            return sum(r.response_time for r in fg) / len(fg)

        base = mean_foreground(False)
        loaded = mean_foreground(True)
        assert loaded == pytest.approx(base, rel=1e-6)

    def test_distant_background_never_fits(self, setup):
        env, drive = setup
        # Foreground clustered at the start of the disk; background at
        # the far end, so every excursion costs two near-full-stroke
        # seeks and can never fit a rotational window.
        rng = random.Random(5)
        foreground = [
            IORequest(
                lba=rng.randrange(drive.geometry.total_sectors // 20),
                size=8,
                is_read=False,
                arrival_time=index * 15.0,
            )
            for index in range(30)
        ]
        far = drive.geometry.total_sectors - 100
        background = [
            IORequest(lba=far, size=8, is_read=False, background=True)
            for _ in range(5)
        ]
        run(env, drive, foreground, background)
        assert drive.freeblock_serviced == 0
        assert drive.background_queue_depth == 5
        assert drive.windows_missed > 0

    def test_submit_routes_by_background_flag(self, setup):
        env, drive = setup
        request = IORequest(lba=0, size=8, is_read=False, background=True)
        drive.submit(request)
        assert drive.background_queue_depth == 1
        assert drive.queue_depth == 0

    def test_completion_event_for_background(self, setup):
        env, drive = setup
        foreground = foreground_stream(drive, 40)
        background = background_near(drive, foreground, 5)
        events = [drive.submit(b) for b in background]
        for request in foreground:
            drive.submit(request)
        env.run()
        completed = [e for e in events if e.triggered]
        assert len(completed) == drive.freeblock_serviced


class TestIdentityDequeue:
    def test_background_drains_without_request_equality(
        self, setup, forbid_request_equality
    ):
        env, drive = setup
        foreground = foreground_stream(drive, 40)
        background = background_near(drive, foreground, 60)
        done = run(env, drive, foreground, background)
        assert drive.freeblock_serviced > 0
        assert len(done) == 40 + drive.freeblock_serviced


class TestDrain:
    def test_drain_promotes_leftovers(self, setup):
        env, drive = setup
        far = drive.geometry.total_sectors - 100
        background = [
            IORequest(lba=far, size=8, is_read=False, background=True)
            for _ in range(3)
        ]
        for request in background:
            drive.submit(request)
        env.run()  # nothing to do yet; background never self-starts
        assert drive.background_queue_depth == 3
        promoted = drive.drain_background()
        env.run()
        assert promoted == 3
        assert drive.background_queue_depth == 0
        assert all(r.completion_time is not None for r in background)

    def test_drain_empty_is_noop(self, setup):
        env, drive = setup
        assert drive.drain_background() == 0


class TestAccounting:
    def test_excursion_billed_to_seek_energy(self, setup):
        env, drive = setup
        foreground = foreground_stream(drive, 60)
        background = background_near(drive, foreground, 20)
        done = run(env, drive, foreground, background)
        if drive.freeblock_serviced == 0:
            pytest.skip("no window fitted at this geometry")
        fg_seek = sum(r.seek_time for r in done if not r.background)
        # Total seek energy must exceed the foreground-only seeks by
        # the background excursions.
        assert drive.stats.seek_ms > fg_seek
