"""Traced experiment drivers for ``python -m repro trace``.

Each driver runs one of the repo's experiments under a session
(:mod:`repro.obs.session`) holding a :class:`~repro.obs.tracer.Tracer`
and returns a :class:`TraceRun`: the tracer (ready for export), the
experiment's canonical figures, and a SHA-256 digest of those figures.
The digest is computed from exactly the values an *untraced* run
produces, which is how the determinism guarantee — tracing changes no
figure bit — is checked end to end.

``limit_study`` additionally replays each workload against an
HC-SD-SA(n) drive (default n=4) in the same traced session, so the
exported trace contains per-arm tracks; the extra runs are excluded
from the figures digest, which covers only the standard MD/HC-SD
limit-study results.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.obs.session import session
from repro.obs.tracer import Tracer

__all__ = ["TRACEABLE_EXPERIMENTS", "TraceRun", "trace_experiment"]

#: Default request count for traced runs: big enough for meaningful
#: arm/phase distributions, small enough that the exported JSON stays
#: viewer-friendly (a full 6000-request limit study is ~¼M spans).
DEFAULT_TRACE_REQUESTS = 1000


@dataclass
class TraceRun:
    """Everything a traced experiment produced."""

    name: str
    tracer: Tracer
    #: Canonical, JSON-able figures of the experiment (the values an
    #: untraced run reports).
    figures: List = field(default_factory=list)
    summary: List[str] = field(default_factory=list)

    @property
    def figures_sha256(self) -> str:
        return figures_digest(self.figures)


def figures_digest(figures: List) -> str:
    """SHA-256 of the canonical JSON form of ``figures``.

    An empty figure list is a driver bug, not a degenerate input: every
    traceable experiment produces at least one canonical figure, and
    hashing ``[]`` would let a broken driver pass determinism checks
    with a vacuous digest.
    """
    if not figures:
        raise ValueError(
            "figures_digest: empty figure list (the experiment driver "
            "produced no canonical figures)"
        )
    payload = json.dumps(figures, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _run_summary(run) -> List[float]:
    return [
        run.mean_response_ms,
        run.percentile(90),
        run.power.total_watts,
    ]


def limit_study_figures(results: Dict) -> List:
    """Canonical figure tuples for a :func:`run_limit_study` result."""
    return [
        [name, _run_summary(result.md) + _run_summary(result.hcsd)]
        for name, result in sorted(results.items())
    ]


def _trace_limit_study(requests: int, n_workers: int, actuators: int):
    from repro.experiments.configs import build_hcsd_system
    from repro.experiments.limit_study import run_limit_study
    from repro.experiments.runner import run_trace
    from repro.sim.engine import Environment
    from repro.workloads.commercial import COMMERCIAL_WORKLOADS

    results = run_limit_study(requests=requests, n_workers=n_workers)
    summary = [
        f"{name}: MD mean {result.md.mean_response_ms:.2f} ms, "
        f"HC-SD mean {result.hcsd.mean_response_ms:.2f} ms"
        for name, result in results.items()
    ]
    if actuators > 1:
        # Extra per-arm visibility: the same traces against an
        # HC-SD-SA(n) drive.  Run in-process so the spans land directly
        # in the ambient tracer; excluded from the figures digest.
        for workload in COMMERCIAL_WORKLOADS.values():
            env = Environment()
            sa_run = run_trace(
                env,
                build_hcsd_system(env, workload, actuators=actuators),
                workload.generate(requests),
            )
            summary.append(
                f"{workload.name}: {sa_run.label} mean "
                f"{sa_run.mean_response_ms:.2f} ms"
            )
    return limit_study_figures(results), summary


def _trace_parallel_study(requests: int, n_workers: int, actuators: int):
    from repro.experiments.parallel_study import run_parallel_study

    results = run_parallel_study(requests=requests, n_workers=n_workers)
    figures = [
        [name, n, _run_summary(run)]
        for name, result in sorted(results.items())
        for n, run in sorted(result.by_actuators.items())
    ]
    summary = [
        f"{name}: SA(4) mean {result.by_actuators[4].mean_response_ms:.2f}"
        f" ms vs HC-SD {result.by_actuators[1].mean_response_ms:.2f} ms"
        for name, result in results.items()
        if 4 in result.by_actuators and 1 in result.by_actuators
    ]
    return figures, summary


def _trace_bottleneck(requests: int, n_workers: int, actuators: int):
    from repro.experiments.bottleneck import run_bottleneck_study

    results = run_bottleneck_study(requests=requests, n_workers=n_workers)
    figures = [
        [name, label, run.mean_response_ms]
        for name, result in sorted(results.items())
        for label, run in sorted(result.runs.items())
    ]
    summary = [
        f"{name}: rotation primary bottleneck = "
        f"{result.rotation_is_primary}"
        for name, result in results.items()
    ]
    return figures, summary


def _trace_rpm_study(requests: int, n_workers: int, actuators: int):
    from repro.experiments.rpm_study import run_rpm_study

    results = run_rpm_study(requests=requests, n_workers=n_workers)
    figures = [
        [name, label, _run_summary(run)]
        for name, result in sorted(results.items())
        for label, run in sorted(result.runs.items())
    ]
    summary = [f"{name}: {len(result.runs)} design points"
               for name, result in results.items()]
    return figures, summary


def _trace_rebuild(requests: int, n_workers: int, actuators: int):
    """A RAID-5 degraded-mode and rebuild scenario (no paper figure).

    Exercises the array's failure path end to end: degraded reads that
    fan out over the survivors, then a row-by-row rebuild onto a
    replacement drive — the trace shows reconstruction reads and
    rebuild writes as a dedicated track.
    """
    from repro.core.parallel_disk import ParallelDisk
    from repro.core.taxonomy import DashConfig
    from repro.disk.request import IORequest
    from repro.disk.scheduler import FCFSScheduler
    from repro.disk.specs import BARRACUDA_ES
    from repro.raid.array import DiskArray
    from repro.raid.layout import Raid5Layout
    from repro.sim.engine import Environment

    disks = 4
    unit = 2048
    rows = 32
    env = Environment()

    def member(index: int) -> ParallelDisk:
        return ParallelDisk(
            env,
            BARRACUDA_ES,
            config=DashConfig(arm_assemblies=actuators),
            scheduler=FCFSScheduler(),
            label=f"raid5-{index}",
        )

    drives = [member(index) for index in range(disks)]
    layout = Raid5Layout(disks, unit * rows, stripe_unit=unit)
    array = DiskArray(env, drives, layout, label="RAID5-rebuild")
    array.fail_drive(1)
    degraded_reads = min(max(requests // 10, 8), 128)

    def scenario():
        for index in range(degraded_reads):
            lba = (index * 3 * unit) % layout.capacity_sectors()
            yield array.submit(
                IORequest(
                    lba=lba, size=8, is_read=True, arrival_time=env.now
                )
            )
        yield array.rebuild(member(disks))

    env.process(scenario())
    env.run()
    figures = [
        ["degraded_reads", degraded_reads],
        ["rebuild_rows", rows],
        ["rebuild_progress", array.rebuild_progress],
        ["elapsed_ms", env.now],
    ]
    summary = [
        f"{degraded_reads} degraded reads, {rows}-row rebuild finished "
        f"at {env.now:.1f} ms simulated"
    ]
    return figures, summary


TRACEABLE_EXPERIMENTS = {
    "limit_study": _trace_limit_study,
    "parallel_study": _trace_parallel_study,
    "bottleneck": _trace_bottleneck,
    "rpm_study": _trace_rpm_study,
    "rebuild": _trace_rebuild,
}


def trace_experiment(
    name: str,
    requests: int = DEFAULT_TRACE_REQUESTS,
    n_workers: int = 1,
    actuators: int = 4,
    tracer: Optional[Tracer] = None,
) -> TraceRun:
    """Run experiment ``name`` under a tracer and return the results.

    ``actuators`` sets the arm count of the supplementary HC-SD-SA(n)
    runs (``limit_study``) and of the RAID members (``rebuild``).
    """
    try:
        driver = TRACEABLE_EXPERIMENTS[name]
    except KeyError:
        raise ValueError(
            f"unknown experiment {name!r}; choose from "
            f"{sorted(TRACEABLE_EXPERIMENTS)}"
        ) from None
    if actuators < 1:
        raise ValueError(f"actuators must be >= 1, got {actuators}")
    active = tracer if tracer is not None else Tracer()
    with session(tracer=active):
        figures, summary = driver(requests, n_workers, actuators)
    return TraceRun(
        name=name, tracer=active, figures=figures, summary=summary
    )
