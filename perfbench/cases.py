"""The benchmark's workloads, built only from the simulator's public API.

Each workload turns a seed into a list of :class:`Config` objects
(``setup``: trace generation plus system construction) and replays
them one after another (``replay``).  A replay returns, per
configuration, the simulated figures the correctness check hashes:
requests completed, mean and 90th-percentile response time (simulated
ms) and total storage power (W).

Everything runs in this process on one thread.  The closed loop's
clients are simulated coroutines inside the engine, not threads.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.disk.scheduler import SPTFScheduler
from repro.experiments import configs, runner
from repro.power.accounting import array_power
from repro.sim.engine import Environment
from repro.workloads.closedloop import ClosedLoopClients
from repro.workloads.commercial import COMMERCIAL_WORKLOADS
from repro.workloads.synthetic import SyntheticWorkload

#: Requests per commercial trace in one ``limit_study`` round; each
#: trace is replayed twice (MD and HC-SD).
LIMIT_REQUESTS = 1500
#: Requests per array in one ``raid_iso`` round (the Fig 8 default).
RAID_REQUESTS = 5000
#: Fig 8 iso-performance triple at 1 ms: (disks, actuators) per array.
RAID_ARRAYS = ((16, 1), (8, 2), (4, 4))
RAID_INTERARRIVAL_MS = 1.0
RAID_FOOTPRINT = 0.02
#: Closed loop: zero-think-time clients against one HC-SD-SA(4).
SPTF_CLIENTS = 16
SPTF_REQUESTS_PER_CLIENT = 375
SPTF_ACTUATORS = 4

#: The correctness floor: ``repro bench`` at 6,000 requests per trace
#: over the four commercial traces at their built-in seeds.
FLOOR_REQUESTS = 6000

#: Published Fig 8 power savings at 1 ms (SA(2), SA(4) vs 16xHC-SD).
PAPER_FIG8_SAVINGS = (0.41, 0.60)

#: (requests completed, mean ms, p90 ms, total power W).
Figures = Tuple[int, float, float, float]


@dataclass
class Config:
    """One system to replay: its label, engine, drives and replay."""

    label: str
    env: Environment
    requests: int
    replay: Callable[[], Figures]
    drives: List[object]


@dataclass
class Outcome:
    """What one configuration's replay produced."""

    label: str
    requests: int
    figures: Optional[Figures]
    events: int
    error: Optional[str] = None

    @property
    def digest(self) -> str:
        payload = json.dumps([self.label, self.figures])
        return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _open_loop(env, system, trace, label) -> Config:
    def replay() -> Figures:
        result = runner.run_trace(env, system, trace, label=label)
        return (
            result.collector.completed,
            result.mean_response_ms,
            result.percentile(90),
            result.power.total_watts,
        )

    return Config(label, env, len(trace), replay, list(system.drives))


def _trace_seed(base_seed: int, seed: int) -> int:
    """Per-trace seed: seed 0 keeps each trace's built-in seed."""
    return base_seed + 1000 * seed


def setup_limit_study(seed: int) -> List[Config]:
    """Fig 2/3: four commercial traces against MD and HC-SD."""
    out = []
    for workload in COMMERCIAL_WORKLOADS.values():
        trace = workload.generate(
            LIMIT_REQUESTS, seed=_trace_seed(workload.seed, seed)
        )
        for build in (configs.build_md_system, configs.build_hcsd_system):
            env = Environment()
            system = build(env, workload)
            out.append(_open_loop(env, system, trace, system.label))
    return out


def setup_raid_iso(seed: int) -> List[Config]:
    """Fig 8 at 1 ms: 16xHC-SD, 8xSA(2) and 4xSA(4) RAID-0 arrays."""
    out = []
    for disks, actuators in RAID_ARRAYS:
        env = Environment()
        system = configs.build_raid0_system(env, disks, actuators=actuators)
        trace = SyntheticWorkload(
            capacity_sectors=system.capacity_sectors(),
            mean_interarrival_ms=RAID_INTERARRIVAL_MS,
            footprint_fraction=RAID_FOOTPRINT,
            seed=seed,
        ).generate(RAID_REQUESTS)
        out.append(_open_loop(env, system, trace, system.label))
    return out


def setup_sptf_closed(seed: int) -> List[Config]:
    """Closed loop of zero-think-time clients on one SPTF HC-SD-SA(4)."""
    env = Environment()
    drive = configs.build_hcsd_drive(
        env, actuators=SPTF_ACTUATORS, scheduler=SPTFScheduler()
    )
    clients = ClosedLoopClients(
        env,
        drive,
        clients=SPTF_CLIENTS,
        capacity_sectors=drive.geometry.total_sectors,
        think_time_ms=0.0,
        seed=seed,
    )

    def replay() -> Figures:
        result = clients.run(SPTF_REQUESTS_PER_CLIENT)
        power = array_power([drive], max(result.elapsed_ms, 1e-9))
        return (
            result.completed,
            result.mean_response_ms,
            result.collector.response_percentile(90),
            power.total_watts,
        )

    requests = SPTF_CLIENTS * SPTF_REQUESTS_PER_CLIENT
    return [Config(drive.label, env, requests, replay, [drive])]


SETUPS: Dict[str, Callable[[int], List[Config]]] = {
    "limit_study": setup_limit_study,
    "raid_iso": setup_raid_iso,
    "sptf_closed": setup_sptf_closed,
}


def replay_one(config: Config) -> Outcome:
    """Replay one configuration; a raise or a short run is an error."""
    try:
        figures = config.replay()
    except Exception as exc:  # one failed config must not end the run
        return Outcome(
            config.label,
            config.requests,
            None,
            config.env.total_events,
            f"{type(exc).__name__}: {exc}",
        )
    outcome = Outcome(
        config.label, config.requests, figures, config.env.total_events
    )
    if figures[0] != config.requests:
        outcome.error = f"drained {figures[0]} of {config.requests}"
    elif not all(math.isfinite(value) for value in figures[1:]):
        outcome.error = f"non-finite figures {figures}"
    return outcome


def workload_digest(outcomes: Sequence[Outcome]) -> str:
    """One digest over every configuration's figures, in replay order."""
    payload = json.dumps([outcome.digest for outcome in outcomes])
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def fig8_fidelity(outcomes: Sequence[Outcome]) -> Dict[str, float]:
    """Power savings of the SA arrays against the paper's Fig 8 panel."""
    base = outcomes[0].figures[3]
    sa2 = 1.0 - outcomes[1].figures[3] / base
    sa4 = 1.0 - outcomes[2].figures[3] / base
    err = max(
        abs(sa2 - PAPER_FIG8_SAVINGS[0]), abs(sa4 - PAPER_FIG8_SAVINGS[1])
    )
    return {
        "fig8.sa2_power_savings": sa2,
        "fig8.sa4_power_savings": sa4,
        "fig8.err_pp": 100.0 * err,
    }


def floor_check() -> Tuple[str, int]:
    """Replay the ``repro bench`` reference pass; (digest, events).

    The digest is computed exactly as ``repro bench`` computes its
    ``figures_sha256``: per trace, the MD and HC-SD mean, p90 and total
    power, JSON-encoded with the trace name.
    """
    rows = []
    events = 0
    for name, workload in COMMERCIAL_WORKLOADS.items():
        trace = workload.generate(FLOOR_REQUESTS)
        figures = []
        for build in (configs.build_md_system, configs.build_hcsd_system):
            env = Environment()
            result = runner.run_trace(env, build(env, workload), trace)
            events += env.total_events
            figures.extend(
                (
                    result.mean_response_ms,
                    result.percentile(90),
                    result.power.total_watts,
                )
            )
        # bench.py interleaves (MD mean, p90, power, HC-SD mean, ...).
        rows.append([name, figures])
    payload = json.dumps(rows, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest(), events
