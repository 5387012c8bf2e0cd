"""Closed-loop workload driver: N clients with think time.

Trace replay (the open-loop driver in :mod:`repro.experiments.runner`)
issues requests at fixed timestamps regardless of completions.  Many
real systems instead behave *closed-loop*: a fixed population of
clients each keeps one request outstanding, thinking for a while after
each completion before issuing the next.  Closed loops self-throttle —
response times degrade gracefully instead of diverging — which makes
them the right tool for interactive-system what-ifs on top of this
package's drives and arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.disk.request import new_request
from repro.metrics.collector import RequestCollector
from repro.sim.engine import Environment

__all__ = ["ClosedLoopClients", "ClosedLoopResult"]


@dataclass
class ClosedLoopResult:
    """Aggregate measurements of a closed-loop run."""

    clients: int
    completed: int
    elapsed_ms: float
    collector: RequestCollector
    per_client_completed: List[int] = field(default_factory=list)

    @property
    def throughput_iops(self) -> float:
        if self.elapsed_ms <= 0:
            return 0.0
        return 1000.0 * self.completed / self.elapsed_ms

    @property
    def mean_response_ms(self) -> float:
        return self.collector.mean_response_ms


class ClosedLoopClients:
    """A population of synchronous clients over one storage system.

    Parameters
    ----------
    env, storage:
        Simulation environment and any object with ``submit`` returning
        a completion event (a drive or a :class:`~repro.raid.array.DiskArray`).
    clients:
        Number of concurrent clients (each keeps one request in
        flight).
    think_time_ms:
        Mean exponential think time between a completion and the
        client's next request (0 = closed loop at full tilt).
    capacity_sectors:
        Address space the clients cover.
    read_fraction / request_size_sectors:
        Request mix.
    """

    def __init__(
        self,
        env: Environment,
        storage,
        clients: int,
        capacity_sectors: int,
        think_time_ms: float = 10.0,
        read_fraction: float = 0.6,
        request_size_sectors: int = 8,
        seed: Optional[int] = 1234,
    ):
        if clients <= 0:
            raise ValueError(f"clients must be positive, got {clients}")
        if think_time_ms < 0:
            raise ValueError(
                f"think_time_ms must be non-negative, got {think_time_ms}"
            )
        if capacity_sectors <= request_size_sectors:
            raise ValueError("capacity must exceed the request size")
        self.env = env
        self.storage = storage
        self.clients = clients
        self.capacity_sectors = capacity_sectors
        self.think_time_ms = think_time_ms
        self.read_fraction = read_fraction
        self.request_size_sectors = request_size_sectors
        self._rng = random.Random(seed)
        self.collector = RequestCollector()
        self.per_client_completed = [0] * clients
        self._stop = False

    def run(self, requests_per_client: int) -> ClosedLoopResult:
        """Run until every client has completed its quota."""
        if requests_per_client <= 0:
            raise ValueError(
                "requests_per_client must be positive, got "
                f"{requests_per_client}"
            )
        for client_id in range(self.clients):
            self.env.process(
                self._client(client_id, requests_per_client)
            )
        self.env.run()
        return ClosedLoopResult(
            clients=self.clients,
            completed=self.collector.completed,
            elapsed_ms=self.env.now,
            collector=self.collector,
            per_client_completed=list(self.per_client_completed),
        )

    def _client(self, client_id: int, quota: int):
        limit = self.capacity_sectors - self.request_size_sectors - 1
        for _ in range(quota):
            if self.think_time_ms > 0:
                yield self.env.timeout(
                    self._rng.expovariate(1.0 / self.think_time_ms)
                )
            request = new_request(
                lba=self._rng.randint(0, limit),
                size=self.request_size_sectors,
                is_read=self._rng.random() < self.read_fraction,
                arrival_time=self.env.now,
            )
            completion = self.storage.submit(request)
            yield completion
            self.collector.record(request)
            self.per_client_completed[client_id] += 1
