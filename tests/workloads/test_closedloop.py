"""Tests for the closed-loop client driver."""

import pytest

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.drive import ConventionalDrive
from repro.disk.scheduler import FCFSScheduler, SPTFScheduler
from repro.sim.engine import Environment
from repro.workloads.closedloop import ClosedLoopClients


def make(tiny_spec, clients=4, think=5.0, actuators=1, seed=1):
    env = Environment()
    if actuators == 1:
        drive = ConventionalDrive(env, tiny_spec, scheduler=FCFSScheduler())
    else:
        drive = ParallelDisk(
            env,
            tiny_spec,
            config=DashConfig(arm_assemblies=actuators),
            scheduler=FCFSScheduler(),
        )
    loop = ClosedLoopClients(
        env,
        drive,
        clients=clients,
        capacity_sectors=drive.geometry.total_sectors,
        think_time_ms=think,
        seed=seed,
    )
    return env, drive, loop


class TestValidation:
    def test_clients_positive(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        with pytest.raises(ValueError):
            ClosedLoopClients(env, drive, 0, 1000)

    def test_think_time_non_negative(self, tiny_spec):
        env = Environment()
        drive = ConventionalDrive(env, tiny_spec)
        with pytest.raises(ValueError):
            ClosedLoopClients(env, drive, 1, 1000, think_time_ms=-1)

    def test_quota_positive(self, tiny_spec):
        _, _, loop = make(tiny_spec)
        with pytest.raises(ValueError):
            loop.run(0)


class TestBehaviour:
    def test_every_client_completes_quota(self, tiny_spec):
        _, _, loop = make(tiny_spec, clients=3)
        result = loop.run(10)
        assert result.completed == 30
        assert result.per_client_completed == [10, 10, 10]

    def test_throughput_and_latency_populated(self, tiny_spec):
        _, _, loop = make(tiny_spec)
        result = loop.run(8)
        assert result.throughput_iops > 0
        assert result.mean_response_ms > 0

    def test_outstanding_bounded_by_population(self, tiny_spec):
        env, drive, loop = make(tiny_spec, clients=2, think=0.0)
        samples = []

        def probe():
            for _ in range(50):
                samples.append(drive.outstanding)
                yield env.timeout(1.0)

        env.process(probe())
        loop.run(15)
        assert max(samples) <= 2

    def test_self_throttling_under_zero_think_time(self, tiny_spec):
        """Closed loops never diverge: response stays near N x service."""
        _, drive, loop = make(tiny_spec, clients=4, think=0.0)
        result = loop.run(25)
        service_est = drive.stats.busy_ms / result.completed
        assert result.mean_response_ms <= 4 * service_est * 1.25

    def test_more_clients_more_throughput_until_saturation(
        self, tiny_spec
    ):
        def throughput(clients):
            _, _, loop = make(tiny_spec, clients=clients, think=20.0)
            return loop.run(15).throughput_iops

        assert throughput(8) > throughput(1) * 2

    def test_parallel_drive_serves_closed_loop_faster(self, tiny_spec):
        def mean_response(actuators):
            _, _, loop = make(
                tiny_spec, clients=6, think=0.0, actuators=actuators
            )
            return loop.run(20).mean_response_ms

        assert mean_response(4) < mean_response(1)

    def test_deterministic_given_seed(self, tiny_spec):
        def run_once():
            _, _, loop = make(tiny_spec, seed=77)
            return loop.run(10).mean_response_ms

        assert run_once() == pytest.approx(run_once())


def sptf_run(tiny_spec, think, seed=3):
    """Five clients on an SPTF SA(4); returns the result and the
    completion order as request ids relative to the run's first id."""
    env = Environment()
    drive = ParallelDisk(
        env,
        tiny_spec,
        config=DashConfig(arm_assemblies=4),
        scheduler=SPTFScheduler(),
    )
    ids = []
    drive.on_complete.append(lambda request: ids.append(request.request_id))
    loop = ClosedLoopClients(
        env,
        drive,
        clients=5,
        capacity_sectors=drive.geometry.total_sectors,
        think_time_ms=think,
        seed=seed,
    )
    result = loop.run(12)
    first = min(ids)
    return result, [request_id - first for request_id in ids]


class TestRequestConstruction:
    @pytest.mark.parametrize("think", [0.0, 2.0])
    def test_same_seed_same_ids_and_counts(self, tiny_spec, think):
        first, first_ids = sptf_run(tiny_spec, think)
        second, second_ids = sptf_run(tiny_spec, think)
        assert first_ids == second_ids
        assert sorted(first_ids) == list(range(60))
        assert first.per_client_completed == second.per_client_completed
        assert first.per_client_completed == [12] * 5

    @pytest.mark.parametrize(
        "think, elapsed_ms, mean_ms, leading_ids",
        [
            (0.0, 314.1602576957786, 22.044766046806583,
             [3, 2, 5, 0, 1, 6, 4, 9, 10, 11]),
            (2.0, 304.5769243624453, 21.577000546568296,
             [0, 4, 3, 2, 5, 6, 9, 7, 8, 10]),
        ],
    )
    def test_figures_pinned(
        self, tiny_spec, think, elapsed_ms, mean_ms, leading_ids
    ):
        """Figures recorded with dataclass-built requests: the fast
        constructor draws the same RNG values in the same order and
        takes ids from the same counter, so nothing may move."""
        result, ids = sptf_run(tiny_spec, think)
        assert result.completed == 60
        assert result.elapsed_ms == elapsed_ms
        assert result.mean_response_ms == mean_ms
        assert ids[:10] == leading_ids
