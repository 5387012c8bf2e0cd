"""Unit tests for the overlapped dispatcher's wait-for-better-arm rule."""

import pytest

from repro.core.extensions import OverlappedParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.request import IORequest
from repro.disk.scheduler import FCFSScheduler, SPTFScheduler
from repro.sim.engine import Environment


@pytest.fixture
def disk(tiny_spec):
    env = Environment()
    return OverlappedParallelDisk(
        env,
        tiny_spec,
        config=DashConfig(arm_assemblies=2),
        scheduler=FCFSScheduler(),
    )


class TestWaitForBetterArm:
    def test_never_waits_when_all_arms_idle(self, disk):
        request = IORequest(lba=0, size=8, is_read=False)
        assert not disk._should_wait_for_better_arm(request, 100.0)

    def test_waits_when_busy_arm_is_far_better(self, disk):
        # Park arm 0 (busy) right on the target; leave arm 1 far away.
        target = disk.geometry.to_physical(1000).cylinder
        disk.arms[0].cylinder = target
        disk.arms[0].busy_until = float("inf")
        disk.arms[1].cylinder = disk.geometry.cylinders - 1
        request = IORequest(lba=1000, size=8, is_read=False)
        _, seek, rotation, _ = disk.best_arm_for(request, 0.0)
        assert disk._should_wait_for_better_arm(request, seek + rotation)

    def test_dispatches_when_idle_arm_competitive(self, disk):
        target = disk.geometry.to_physical(1000).cylinder
        disk.arms[0].cylinder = target
        disk.arms[0].busy_until = float("inf")
        disk.arms[1].cylinder = target  # idle arm equally close
        request = IORequest(lba=1000, size=8, is_read=False)
        _, seek, rotation, _ = disk.best_arm_for(request, 0.0)
        assert not disk._should_wait_for_better_arm(
            request, seek + rotation
        )

    def test_include_busy_search_sees_busy_arms(self, disk):
        target = disk.geometry.to_physical(1000).cylinder
        disk.arms[0].cylinder = target
        disk.arms[0].busy_until = float("inf")
        disk.arms[1].cylinder = disk.geometry.cylinders - 1
        request = IORequest(lba=1000, size=8, is_read=False)
        arm, _, _, _ = disk.best_arm_for(request, 0.0, include_busy=True)
        assert arm.arm_id == 0
        arm, _, _, _ = disk.best_arm_for(request, 0.0)
        assert arm.arm_id == 1


class TestIdentityDequeue:
    def test_deep_queue_drains_without_request_equality(
        self, tiny_spec, forbid_request_equality
    ):
        env = Environment()
        disk = OverlappedParallelDisk(
            env,
            tiny_spec,
            config=DashConfig(arm_assemblies=2),
            channels=2,
            scheduler=SPTFScheduler(),
        )
        limit = disk.geometry.total_sectors - 16
        for index in range(40):
            disk.submit(
                IORequest(
                    lba=(index * 7919 * 97) % limit,
                    size=8,
                    is_read=index % 3 == 0,
                )
            )
        env.run()
        assert disk.stats.requests_completed == 40
        assert disk.queue_depth == 0
