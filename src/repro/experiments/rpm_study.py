"""Figures 6 and 7: reduced-RPM intra-disk parallel designs.

RPM has a near-cubic impact on spindle power, so an intra-disk
parallel drive can be designed at a lower RPM, trading rotational
latency (which the extra actuators claw back) for power.  Figure 6
reports the mode-stacked average power of SA(2)/SA(4) at 7200, 6200,
5200 and 4200 RPM; Figure 7 shows the response-time CDFs of the design
points that still match or exceed MD.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from repro.experiments.configs import build_hcsd_system, build_md_system
from repro.experiments.executor import Job, sweep_by_key
from repro.experiments.runner import RunResult, run_trace
from repro.metrics.cdf import RESPONSE_TIME_EDGES_MS
from repro.metrics.report import format_cdf_table, format_table
from repro.sim.engine import Environment
from repro.workloads.commercial import (
    COMMERCIAL_WORKLOADS,
    CommercialWorkload,
)

__all__ = [
    "RpmStudyResult",
    "format_figure6",
    "format_figure7",
    "run_rpm_study",
]

DEFAULT_REQUESTS = 6000
#: (actuators, rpm) design points of Figure 6; rpm None = the stock 7200.
DEFAULT_DESIGN_POINTS: Tuple[Tuple[int, Optional[float]], ...] = (
    (1, None),
    (2, None),
    (4, None),
    (2, 6200),
    (4, 6200),
    (2, 5200),
    (4, 5200),
    (2, 4200),
    (4, 4200),
)


def design_label(actuators: int, rpm: Optional[float]) -> str:
    if actuators == 1 and rpm is None:
        return "HC-SD"
    rpm_text = f"{rpm:g}" if rpm is not None else "7200"
    return f"SA({actuators})/{rpm_text}"


@dataclass
class RpmStudyResult:
    """All design-point runs plus the MD reference for one workload."""

    workload: str
    md: RunResult
    runs: Dict[str, RunResult] = field(default_factory=dict)

    def breakeven_designs(self, tolerance: float = 1.35) -> Dict[str, RunResult]:
        """Design points whose mean response is within ``tolerance`` ×
        MD (or better) — the curves Figure 7 plots."""
        limit = self.md.mean_response_ms * tolerance
        return {
            label: run
            for label, run in self.runs.items()
            if label != "HC-SD" and run.mean_response_ms <= limit
        }


def _md_job(workload: CommercialWorkload, requests: int) -> RunResult:
    """The MD reference run for one workload (executes in a worker)."""
    trace = workload.generate(requests)
    env = Environment()
    return run_trace(env, build_md_system(env, workload), trace)


def _design_job(
    workload: CommercialWorkload,
    actuators: int,
    rpm: Optional[float],
    requests: int,
) -> RunResult:
    """One (actuators, rpm) design-point run (executes in a worker)."""
    trace = workload.generate(requests)
    env = Environment()
    system = build_hcsd_system(env, workload, actuators=actuators, rpm=rpm)
    label = design_label(actuators, rpm)
    return run_trace(env, system, trace, label=label)


def run_rpm_study(
    workloads: Optional[Iterable[CommercialWorkload]] = None,
    design_points: Iterable[Tuple[int, Optional[float]]] = (
        DEFAULT_DESIGN_POINTS
    ),
    requests: int = DEFAULT_REQUESTS,
    n_workers: int = 1,
) -> Dict[str, RpmStudyResult]:
    points = list(design_points)
    selected = list(workloads or COMMERCIAL_WORKLOADS.values())
    jobs = []
    for workload in selected:
        jobs.append(
            Job(_md_job, (workload, requests), key=(workload.name, "md"))
        )
        for actuators, rpm in points:
            jobs.append(
                Job(
                    _design_job,
                    (workload, actuators, rpm, requests),
                    key=(workload.name, design_label(actuators, rpm)),
                )
            )
    runs = sweep_by_key(jobs, n_workers=n_workers)
    results: Dict[str, RpmStudyResult] = {}
    for workload in selected:
        result = RpmStudyResult(
            workload=workload.name, md=runs[(workload.name, "md")]
        )
        for actuators, rpm in points:
            label = design_label(actuators, rpm)
            result.runs[label] = runs[(workload.name, label)]
        results[workload.name] = result
    return results


def format_figure6(results: Dict[str, RpmStudyResult]) -> str:
    """Figure 6: mode-stacked average power per design point."""
    headers = [
        "workload",
        "design",
        "idle_W",
        "seek_W",
        "rotational_W",
        "transfer_W",
        "total_W",
    ]
    rows = []
    for name, result in results.items():
        for label, run in result.runs.items():
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
        title="Figure 6: average power of reduced-RPM SA(n) designs",
        float_format="{:.2f}",
    )


def format_figure7(results: Dict[str, RpmStudyResult]) -> str:
    """Figure 7: CDFs of designs that match or exceed MD."""
    edge_labels = [f"{edge:g}" for edge in RESPONSE_TIME_EDGES_MS]
    edge_labels.append("200+")
    blocks = []
    for name, result in results.items():
        matching = result.breakeven_designs()
        if not matching:
            blocks.append(
                f"Figure 7 [{name}]: no reduced-RPM design matches MD"
            )
            continue
        series = [
            (label, run.response_cdf())
            for label, run in sorted(matching.items())
        ]
        series.append(("MD", result.md.response_cdf()))
        blocks.append(
            format_cdf_table(
                edge_labels,
                series,
                title=(
                    f"Figure 7 [{name}]: reduced-RPM designs matching MD"
                ),
            )
        )
    return "\n\n".join(blocks)
