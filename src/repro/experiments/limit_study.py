"""Figures 2 and 3: the MD → HC-SD limit study.

For each commercial workload, replay the same trace against (a) the
original multi-disk array and (b) the single high-capacity drive, and
report the response-time CDFs (Figure 2) and the mode-stacked average
power of each storage system (Figure 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.experiments.configs import build_hcsd_system, build_md_system
from repro.experiments.executor import Job, sweep
from repro.experiments.runner import RunResult, run_trace
from repro.metrics.cdf import RESPONSE_TIME_EDGES_MS
from repro.metrics.report import format_cdf_table, format_table
from repro.sim.engine import Environment
from repro.workloads.commercial import (
    COMMERCIAL_WORKLOADS,
    CommercialWorkload,
)

__all__ = ["LimitStudyResult", "format_figure2", "format_figure3",
           "run_limit_study"]

DEFAULT_REQUESTS = 6000


@dataclass
class LimitStudyResult:
    """MD and HC-SD runs for one workload."""

    workload: str
    md: RunResult
    hcsd: RunResult

    @property
    def power_ratio(self) -> float:
        """MD power over HC-SD power (the order-of-magnitude claim)."""
        return self.md.power.total_watts / self.hcsd.power.total_watts


def _limit_job(
    workload: CommercialWorkload, requests: int
) -> LimitStudyResult:
    """One workload's MD and HC-SD runs (executes in a worker)."""
    trace = workload.generate(requests)
    env = Environment()
    md = run_trace(env, build_md_system(env, workload), trace)
    env = Environment()
    hcsd = run_trace(env, build_hcsd_system(env, workload), trace)
    return LimitStudyResult(workload=workload.name, md=md, hcsd=hcsd)


def run_limit_study(
    workloads: Optional[Iterable[CommercialWorkload]] = None,
    requests: int = DEFAULT_REQUESTS,
    n_workers: int = 1,
) -> Dict[str, LimitStudyResult]:
    """Run the limit study; returns results keyed by workload name.

    ``n_workers`` fans the per-workload jobs out across processes via
    :func:`repro.experiments.executor.sweep`; results are
    bit-identical to the serial path for any worker count.
    """
    selected = list(workloads or COMMERCIAL_WORKLOADS.values())
    jobs = [
        Job(_limit_job, (workload, requests), key=workload.name)
        for workload in selected
    ]
    return {
        result.workload: result
        for result in sweep(jobs, n_workers=n_workers)
    }


def _edge_labels() -> List[str]:
    labels = [f"{edge:g}" for edge in RESPONSE_TIME_EDGES_MS]
    labels.append("200+")
    return labels


def format_figure2(results: Dict[str, LimitStudyResult]) -> str:
    """Figure 2: response-time CDFs, MD vs HC-SD, per workload."""
    blocks = []
    for name, result in results.items():
        blocks.append(
            format_cdf_table(
                _edge_labels(),
                [
                    ("MD", result.md.response_cdf()),
                    ("HC-SD", result.hcsd.response_cdf()),
                ],
                title=f"Figure 2 [{name}]: response-time CDF",
            )
        )
    return "\n\n".join(blocks)


def format_figure3(results: Dict[str, LimitStudyResult]) -> str:
    """Figure 3: average power, stacked by operating mode."""
    headers = [
        "workload",
        "system",
        "idle_W",
        "seek_W",
        "rotational_W",
        "transfer_W",
        "total_W",
    ]
    rows = []
    for name, result in results.items():
        for label, run in (("MD", result.md), ("HC-SD", result.hcsd)):
            power = run.power
            rows.append(
                (
                    name,
                    label,
                    power.idle_watts,
                    power.seek_watts,
                    power.rotational_watts,
                    power.transfer_watts,
                    power.total_watts,
                )
            )
    return format_table(
        headers,
        rows,
        title="Figure 3: storage-system average power (MD vs HC-SD)",
        float_format="{:.2f}",
    )
