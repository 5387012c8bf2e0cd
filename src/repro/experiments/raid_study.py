"""Figure 8: RAID arrays built from intra-disk parallel drives.

Synthetic open workloads (exponential inter-arrival at 8/4/1 ms; 60 %
reads, 20 % sequential) run against RAID-0 arrays of 1..16 drives
built from conventional (HC-SD), 2-actuator and 4-actuator members.
Reported: the 90th-percentile response time per array size (the first
three panels of Figure 8) and the iso-performance power comparison
(the fourth panel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.configs import build_raid0_system
from repro.experiments.executor import Job, sweep_by_key
from repro.experiments.runner import RunResult, run_trace
from repro.metrics.report import format_table
from repro.sim.engine import Environment
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "RaidStudyResult",
    "format_figure8_performance",
    "format_figure8_power",
    "run_raid_study",
]

DEFAULT_REQUESTS = 5000
DEFAULT_INTERARRIVALS_MS = (8.0, 4.0, 1.0)
DEFAULT_DISK_COUNTS = (1, 2, 4, 8, 16)
DEFAULT_ACTUATOR_COUNTS = (1, 2, 4)
#: Fraction of the array the synthetic dataset covers (short-stroked
#: outer zones; see the generator's docstring).
DEFAULT_FOOTPRINT_FRACTION = 0.02

#: The iso-performance triples of the paper's fourth panel, keyed by
#: inter-arrival time: (HC-SD disks, SA(2) disks, SA(4) disks).
ISO_PERFORMANCE_SETS: Dict[float, Tuple[int, int, int]] = {
    8.0: (4, 2, 1),
    4.0: (8, 4, 2),
    1.0: (16, 8, 4),
}


@dataclass
class RaidStudyResult:
    """p90 and power for every (inter-arrival, actuators, disks) cell."""

    requests: int
    #: cells[(ia_ms, actuators, disks)] -> RunResult
    cells: Dict[Tuple[float, int, int], RunResult] = field(
        default_factory=dict
    )

    def p90(self, ia_ms: float, actuators: int, disks: int) -> float:
        return self.cells[(ia_ms, actuators, disks)].percentile(90)

    def power(self, ia_ms: float, actuators: int, disks: int) -> float:
        return self.cells[(ia_ms, actuators, disks)].power.total_watts

    def iso_performance_power(
        self, ia_ms: float
    ) -> List[Tuple[str, float]]:
        """Power of the iso-performance configurations at ``ia_ms``."""
        disks_sa1, disks_sa2, disks_sa4 = ISO_PERFORMANCE_SETS[ia_ms]
        return [
            (f"{disks_sa1}xHC-SD", self.power(ia_ms, 1, disks_sa1)),
            (f"{disks_sa2}xSA(2)", self.power(ia_ms, 2, disks_sa2)),
            (f"{disks_sa4}xSA(4)", self.power(ia_ms, 4, disks_sa4)),
        ]

    def power_savings(self, ia_ms: float) -> Tuple[float, float]:
        """Fractional savings of the SA(2)/SA(4) arrays over HC-SD at
        iso-performance (paper: 41 % and 60 % at 1 ms)."""
        rows = self.iso_performance_power(ia_ms)
        base = rows[0][1]
        return (1.0 - rows[1][1] / base, 1.0 - rows[2][1] / base)


def _cell_job(
    ia_ms: float,
    actuators: int,
    disks: int,
    requests: int,
    footprint_fraction: float,
    seed: int,
) -> RunResult:
    """One (inter-arrival, actuators, disks) cell (executes in a worker)."""
    env = Environment()
    system = build_raid0_system(env, disks, actuators=actuators)
    workload = SyntheticWorkload(
        capacity_sectors=system.capacity_sectors(),
        mean_interarrival_ms=ia_ms,
        footprint_fraction=footprint_fraction,
        seed=seed,
    )
    trace = workload.generate(requests)
    return run_trace(env, system, trace)


def run_raid_study(
    interarrivals_ms: Iterable[float] = DEFAULT_INTERARRIVALS_MS,
    disk_counts: Iterable[int] = DEFAULT_DISK_COUNTS,
    actuator_counts: Iterable[int] = DEFAULT_ACTUATOR_COUNTS,
    requests: int = DEFAULT_REQUESTS,
    footprint_fraction: float = DEFAULT_FOOTPRINT_FRACTION,
    seed: int = 99,
    n_workers: int = 1,
) -> RaidStudyResult:
    jobs = [
        Job(
            _cell_job,
            (ia_ms, actuators, disks, requests, footprint_fraction, seed),
            key=(ia_ms, actuators, disks),
        )
        for ia_ms in interarrivals_ms
        for actuators in actuator_counts
        for disks in disk_counts
    ]
    result = RaidStudyResult(requests=requests)
    result.cells.update(sweep_by_key(jobs, n_workers=n_workers))
    return result


def format_figure8_performance(
    result: RaidStudyResult,
    interarrivals_ms: Iterable[float] = DEFAULT_INTERARRIVALS_MS,
    disk_counts: Iterable[int] = DEFAULT_DISK_COUNTS,
    actuator_counts: Iterable[int] = DEFAULT_ACTUATOR_COUNTS,
) -> str:
    """Figure 8, panels 1-3: p90 response time vs array size."""
    blocks = []
    disks_list = list(disk_counts)
    for ia_ms in interarrivals_ms:
        headers = ["config"] + [f"{d}_disks" for d in disks_list]
        rows = []
        for actuators in actuator_counts:
            label = "HC-SD" if actuators == 1 else f"HC-SD-SA({actuators})"
            rows.append(
                [label]
                + [result.p90(ia_ms, actuators, d) for d in disks_list]
            )
        blocks.append(
            format_table(
                headers,
                rows,
                title=(
                    f"Figure 8: 90th-pct response (ms), "
                    f"inter-arrival {ia_ms:g} ms"
                ),
                float_format="{:.1f}",
            )
        )
    return "\n\n".join(blocks)


def format_figure8_power(
    result: RaidStudyResult,
    interarrivals_ms: Iterable[float] = DEFAULT_INTERARRIVALS_MS,
) -> str:
    """Figure 8, panel 4: iso-performance power comparison."""
    headers = ["inter_arrival_ms", "config", "power_W", "savings_vs_HC-SD"]
    rows = []
    for ia_ms in interarrivals_ms:
        entries = result.iso_performance_power(ia_ms)
        base = entries[0][1]
        for label, watts in entries:
            rows.append((f"{ia_ms:g}", label, watts, 1.0 - watts / base))
    return format_table(
        headers,
        rows,
        title="Figure 8: iso-performance power comparison",
        float_format="{:.2f}",
    )
