"""The reliability study: MD RAID-5 vs HC-SD-SA(n) under faults.

The paper's iso-performance argument (one HC-SD-SA(4) drive replacing
a 4-drive array, §7.3) invites the reliability objection of §8: the
parallel drive concentrates every failure point on one spindle.  This
study answers quantitatively, re-running the comparison under a seeded
:class:`~repro.faults.plan.FaultPlan`:

- a **4-member RAID-5 array** of single-actuator drives, which absorbs
  a whole-drive failure by degraded-mode reconstruction and a hot-spare
  rebuild;
- a **single HC-SD-SA(4) drive** with the same usable capacity, which
  absorbs actuator failures by deconfiguring arms (SA(4) → SA(3) → …)
  and soaks up the media errors of every member it replaces.

The same plan drives both systems (each applies the event kinds its
shape supports — the divergence is logged, not hidden), and both run
healthy under the *empty* plan for the baseline CDFs.  Reported:
healthy vs degraded response-time CDFs, rebuild-window inflation
(loaded vs idle rebuild), robustness counters, and an analytic
MTTDL/availability table whose RAID-5 repair time is derived from the
*measured* rebuild rate scaled to the full drive capacity.

Determinism: every cell is a pure function of its picklable arguments,
so serial and ``sweep()`` runs produce bit-identical figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.parallel_disk import ParallelDisk
from repro.core.taxonomy import DashConfig
from repro.disk.scheduler import FCFSScheduler
from repro.disk.specs import BARRACUDA_ES
from repro.experiments.executor import Job, sweep_by_key
from repro.experiments.runner import run_trace
from repro.faults.injector import FaultInjector
from repro.faults.mttdl import (
    availability,
    mttdl_parallel_drive,
    mttdl_raid0,
    mttdl_raid5,
    mttdl_single,
)
from repro.faults.plan import FaultEvent, FaultPlan
from repro.faults.policy import RetryPolicy
from repro.metrics.report import format_table
from repro.raid.array import DiskArray
from repro.raid.layout import ConcatLayout, Raid5Layout
from repro.sim.engine import Environment
from repro.workloads.synthetic import SyntheticWorkload

__all__ = [
    "ReliabilityStudyResult",
    "build_reliability_raid5",
    "build_reliability_sa",
    "default_fault_plan",
    "default_retry_policy",
    "format_mttdl_table",
    "format_reliability_cdfs",
    "format_reliability_summary",
    "reliability_figures",
    "run_reliability_study",
]

DEFAULT_REQUESTS = 2000
DEFAULT_INTERARRIVAL_MS = 4.0
DEFAULT_SEED = 42
DEFAULT_FAULT_SEED = 101
ARRAY_DISKS = 4
DEFAULT_ACTUATORS = 4
STRIPE_UNIT = 128
#: Logical extent per RAID member (64 MiB).  Small enough that a full
#: rebuild (1024 rows) finishes within the simulated run; the MTTDL
#: table scales the measured rebuild rate back up to the real drive
#: capacity.
MEMBER_CAPACITY_SECTORS = 131_072

#: Datasheet-class MTTF for the Barracuda-ES drives the study models.
DRIVE_MTTF_HOURS = 1.2e6
#: Share of drive failures attributable to head/arm assemblies (the
#: survivable ones on an arm-redundant drive); see
#: :func:`repro.faults.mttdl.mttdl_parallel_drive`.
ARM_FAILURE_FRACTION = 0.4
#: Repair time for configurations that need a restore from backup
#: (non-redundant layouts — there is nothing to rebuild from).
RESTORE_HOURS = 24.0


def default_retry_policy() -> RetryPolicy:
    """Array-level policy: three submissions, 50 ms command timeout,
    half-millisecond linear backoff."""
    return RetryPolicy(max_attempts=3, timeout_ms=50.0, backoff_ms=0.5)


def build_reliability_raid5(
    env: Environment,
    retry_policy: Optional[RetryPolicy] = None,
) -> DiskArray:
    """The baseline: RAID-5 over four single-actuator members."""
    drives = [
        ParallelDisk(
            env,
            BARRACUDA_ES,
            config=DashConfig(),
            scheduler=FCFSScheduler(),
            label=f"raid5-member-{index}",
        )
        for index in range(ARRAY_DISKS)
    ]
    layout = Raid5Layout(
        ARRAY_DISKS, MEMBER_CAPACITY_SECTORS, stripe_unit=STRIPE_UNIT
    )
    return DiskArray(
        env,
        drives,
        layout,
        label=f"{ARRAY_DISKS}xHC-SD-RAID5",
        retry_policy=retry_policy,
    )


def build_reliability_sa(
    env: Environment,
    actuators: int = DEFAULT_ACTUATORS,
    retry_policy: Optional[RetryPolicy] = None,
) -> DiskArray:
    """The challenger: one SA(n) drive with the array's usable capacity."""
    spec = BARRACUDA_ES.with_actuators(actuators)
    drive = ParallelDisk(
        env,
        spec,
        config=DashConfig(arm_assemblies=actuators),
        scheduler=FCFSScheduler(),
        label=f"hcsd-sa{actuators}",
    )
    # Usable capacity matches RAID-5 exactly: (N-1) data members.
    layout = ConcatLayout([(ARRAY_DISKS - 1) * MEMBER_CAPACITY_SECTORS])
    return DiskArray(
        env,
        [drive],
        layout,
        label=f"HC-SD-SA({actuators})",
        retry_policy=retry_policy,
    )


def default_fault_plan(
    fault_seed: int, horizon_ms: float,
    actuators: int = DEFAULT_ACTUATORS,
) -> FaultPlan:
    """The study's seeded plan: stochastic media errors + scheduled
    structural failures.

    Media errors (transient + latent) are drawn per member drive from
    ``fault_seed``; they are untargeted (no ``lba``), so each one is
    consumed by the drive's next media access — every armed error
    visibly costs retry revolutions during the run.  The structural
    events are scheduled, so both systems face a comparable shock at
    the same instant: the array loses member 1 at 25 % of the horizon
    (hot spare at 40 %, so the rebuild runs under the remaining load);
    the SA drive loses one arm at the same instant and a second at
    55 %.
    """
    generated = FaultPlan.generate(
        seed=fault_seed,
        horizon_ms=horizon_ms,
        drives=ARRAY_DISKS,
        transient_mtbf_ms=horizon_ms / 4.0,
        latent_mtbf_ms=horizon_ms,
        max_error_attempts=2,
    )
    events = list(generated.events)
    events.append(FaultEvent(
        time_ms=0.25 * horizon_ms, kind="drive_failure", drive=1
    ))
    events.append(FaultEvent(
        time_ms=0.40 * horizon_ms, kind="spare_arrival", drive=1
    ))
    events.append(FaultEvent(
        time_ms=0.25 * horizon_ms, kind="arm_failure", drive=0, arm=1
    ))
    if actuators > 2:
        events.append(FaultEvent(
            time_ms=0.55 * horizon_ms, kind="arm_failure", drive=0, arm=2
        ))
    return FaultPlan(events, seed=fault_seed)


#: Event kinds each configuration can absorb.  The RAID array has no
#: deconfigurable arms (single-actuator members); the single SA drive
#: has no redundancy to survive a whole-drive loss, so those events
#: are filtered rather than crashing a comparison run.
_KINDS_BY_CONFIG = {
    "raid5": ("transient", "latent", "drive_failure", "spare_arrival"),
    "sa": ("transient", "latent", "arm_failure"),
}


def _spare_factory(env: Environment):
    def make() -> ParallelDisk:
        return ParallelDisk(
            env,
            BARRACUDA_ES,
            config=DashConfig(),
            scheduler=FCFSScheduler(),
            label="hot-spare",
        )

    return make


def _run_cell(
    config: str,
    mode: str,
    plan_payload: Dict,
    requests: int,
    interarrival_ms: float,
    seed: int,
    actuators: int,
    policy: RetryPolicy,
) -> Dict:
    """One (configuration, mode) cell; executes in a worker process.

    Returns a plain picklable dict — everything the figures and tables
    need, nothing simulation-bound.
    """
    plan = FaultPlan.from_dict(plan_payload)
    env = Environment()
    if config == "raid5":
        system = build_reliability_raid5(env, retry_policy=policy)
    elif config == "sa":
        system = build_reliability_sa(
            env, actuators=actuators, retry_policy=policy
        )
    else:
        raise ValueError(f"unknown config {config!r}")
    members = list(system.drives)
    injector = None
    if len(plan):
        injector = FaultInjector(
            env,
            plan,
            array=system,
            spare_factory=_spare_factory(env),
            kinds=_KINDS_BY_CONFIG[config],
            strict=False,
            # The single SA drive absorbs the media faults of every
            # member it replaces.
            drive_map="modulo" if config == "sa" else "strict",
        )
    workload = SyntheticWorkload(
        capacity_sectors=system.capacity_sectors(),
        mean_interarrival_ms=interarrival_ms,
        seed=seed,
    )
    run = run_trace(env, system, workload.generate(requests))

    # Sum drive-level fault stats over every drive that served —
    # original members, the replaced-out failed member, and the spare.
    drives = list(dict.fromkeys(members + list(system.drives)))
    drive_totals = {
        "media_errors": sum(d.stats.media_errors for d in drives),
        "media_retries": sum(d.stats.media_retries for d in drives),
        "unrecovered_errors": sum(
            d.stats.unrecovered_errors for d in drives
        ),
        "retry_ms": sum(d.stats.retry_ms for d in drives),
    }
    arms_deconfigured = sum(
        sum(1 for arm in drive.arms if arm.failed)
        for drive in drives
        if hasattr(drive, "arms")
    )
    return {
        "label": system.label,
        "config": config,
        "mode": mode,
        "requests": run.requests,
        "mean_ms": run.mean_response_ms,
        "p90_ms": run.percentile(90),
        "p99_ms": run.percentile(99),
        "cdf": run.response_cdf(),
        "elapsed_ms": run.elapsed_ms,
        "power_watts": run.power.total_watts,
        "degraded_ms": system.degraded_time_ms(),
        "rebuild_window_ms": system.rebuild_window_ms,
        "drive_failures": system.drive_failures,
        "slice_retries": system.slice_retries,
        "deadline_misses": system.deadline_misses,
        "unrecovered_requests": system.unrecovered_requests,
        "arms_deconfigured": arms_deconfigured,
        "faults_applied": len(injector.applied) if injector else 0,
        "faults_skipped": len(injector.skipped) if injector else 0,
        **drive_totals,
    }


def _run_idle_rebuild(policy: RetryPolicy) -> float:
    """Rebuild window with no foreground load (the inflation baseline)."""
    env = Environment()
    system = build_reliability_raid5(env, retry_policy=policy)
    system.fail_drive(1)
    system.rebuild(_spare_factory(env)())
    env.run()
    window = system.rebuild_window_ms
    if window is None:
        raise RuntimeError("idle rebuild did not complete")
    return window


@dataclass
class ReliabilityStudyResult:
    """Every cell of the study plus the plan that produced it."""

    requests: int
    interarrival_ms: float
    actuators: int
    plan: FaultPlan
    policy: RetryPolicy
    #: cells[(config, mode)] -> the dict produced by :func:`_run_cell`.
    cells: Dict[Tuple[str, str], Dict] = field(default_factory=dict)
    idle_rebuild_ms: float = 0.0

    def cell(self, config: str, mode: str) -> Dict:
        return self.cells[(config, mode)]

    @property
    def loaded_rebuild_ms(self) -> Optional[float]:
        return self.cell("raid5", "faulted")["rebuild_window_ms"]

    def rebuild_inflation(self) -> Optional[float]:
        """Loaded-over-idle rebuild window ratio (≥ 1 under load)."""
        loaded = self.loaded_rebuild_ms
        if loaded is None or self.idle_rebuild_ms <= 0.0:
            return None
        return loaded / self.idle_rebuild_ms

    def _raid5_mttr_hours(self) -> float:
        """Measured rebuild rate scaled to the full drive capacity."""
        window_ms = self.loaded_rebuild_ms or self.idle_rebuild_ms
        full_scale = (
            BARRACUDA_ES.build_geometry().total_sectors
            / MEMBER_CAPACITY_SECTORS
        )
        return window_ms * full_scale / 3.6e6

    def mttdl_rows(self) -> List[Tuple[str, float, float]]:
        """(config, MTTDL hours, availability) for the paper's contenders."""
        raid5_mttr = self._raid5_mttr_hours()
        rows = [
            (
                "1xHC-SD (no redundancy)",
                mttdl_single(DRIVE_MTTF_HOURS),
                availability(mttdl_single(DRIVE_MTTF_HOURS), RESTORE_HOURS),
            ),
            (
                f"{ARRAY_DISKS}xHC-SD RAID-0",
                mttdl_raid0(DRIVE_MTTF_HOURS, ARRAY_DISKS),
                availability(
                    mttdl_raid0(DRIVE_MTTF_HOURS, ARRAY_DISKS), RESTORE_HOURS
                ),
            ),
            (
                f"{ARRAY_DISKS}xHC-SD RAID-5 (measured rebuild)",
                mttdl_raid5(DRIVE_MTTF_HOURS, ARRAY_DISKS, raid5_mttr),
                availability(
                    mttdl_raid5(DRIVE_MTTF_HOURS, ARRAY_DISKS, raid5_mttr),
                    raid5_mttr,
                ),
            ),
            (
                f"1xHC-SD-SA({self.actuators}) arm-degradable",
                mttdl_parallel_drive(
                    DRIVE_MTTF_HOURS,
                    self.actuators,
                    ARM_FAILURE_FRACTION,
                ),
                availability(
                    mttdl_parallel_drive(
                        DRIVE_MTTF_HOURS,
                        self.actuators,
                        ARM_FAILURE_FRACTION,
                    ),
                    RESTORE_HOURS,
                ),
            ),
        ]
        return rows


def reliability_figures(result: ReliabilityStudyResult) -> List:
    """Canonical, JSON-able figures (digest input for determinism tests)."""
    figures: List = []
    for key in sorted(result.cells):
        cell = result.cells[key]
        figures.append([
            cell["label"],
            cell["mode"],
            cell["mean_ms"],
            cell["p90_ms"],
            cell["p99_ms"],
            cell["cdf"],
            cell["degraded_ms"],
            cell["rebuild_window_ms"],
            cell["slice_retries"],
            cell["deadline_misses"],
            cell["unrecovered_requests"],
            cell["media_errors"],
            cell["arms_deconfigured"],
        ])
    figures.append(["idle_rebuild_ms", result.idle_rebuild_ms])
    figures.append([
        "mttdl",
        [[label, hours, avail] for label, hours, avail
         in result.mttdl_rows()],
    ])
    return figures


def run_reliability_study(
    requests: int = DEFAULT_REQUESTS,
    interarrival_ms: float = DEFAULT_INTERARRIVAL_MS,
    seed: int = DEFAULT_SEED,
    fault_seed: int = DEFAULT_FAULT_SEED,
    actuators: int = DEFAULT_ACTUATORS,
    plan: Optional[FaultPlan] = None,
    retry_policy: Optional[RetryPolicy] = None,
    n_workers: int = 1,
) -> ReliabilityStudyResult:
    """Run all four cells plus the idle-rebuild baseline.

    ``plan`` overrides the default seeded plan (pass
    ``FaultPlan.empty()`` for a healthy-only sanity run); both
    configurations replay the same plan with their respective kind
    filters.
    """
    policy = retry_policy or default_retry_policy()
    horizon_ms = requests * interarrival_ms
    if plan is None:
        plan = default_fault_plan(
            fault_seed, horizon_ms, actuators=actuators
        )
    empty = FaultPlan.empty().to_dict()
    payload = plan.to_dict()
    jobs = [
        Job(
            _run_cell,
            (
                config,
                mode,
                empty if mode == "healthy" else payload,
                requests,
                interarrival_ms,
                seed,
                actuators,
                policy,
            ),
            key=(config, mode),
        )
        for config in ("raid5", "sa")
        for mode in ("healthy", "faulted")
    ]
    jobs.append(Job(_run_idle_rebuild, (policy,), key="idle-rebuild"))
    outcome = sweep_by_key(jobs, n_workers=n_workers)
    result = ReliabilityStudyResult(
        requests=requests,
        interarrival_ms=interarrival_ms,
        actuators=actuators,
        plan=plan,
        policy=policy,
    )
    result.idle_rebuild_ms = outcome.pop("idle-rebuild")
    result.cells.update(outcome)
    return result


# -- formatting -------------------------------------------------------------
def format_reliability_summary(result: ReliabilityStudyResult) -> str:
    headers = [
        "system", "mode", "mean_ms", "p90_ms", "p99_ms",
        "degraded_ms", "rebuild_ms", "retries", "misses", "unrec",
    ]
    rows = []
    for key in sorted(result.cells):
        cell = result.cells[key]
        rows.append((
            cell["label"],
            cell["mode"],
            cell["mean_ms"],
            cell["p90_ms"],
            cell["p99_ms"],
            cell["degraded_ms"],
            cell["rebuild_window_ms"] or 0.0,
            cell["slice_retries"] + cell["media_retries"],
            cell["deadline_misses"],
            cell["unrecovered_requests"],
        ))
    table = format_table(
        headers,
        rows,
        title=(
            f"Reliability study: {result.requests} requests, "
            f"{result.interarrival_ms:g} ms inter-arrival, "
            f"{len(result.plan)} fault events (seed "
            f"{result.plan.seed})"
        ),
        float_format="{:.2f}",
    )
    lines = [table]
    inflation = result.rebuild_inflation()
    if inflation is not None:
        lines.append(
            f"rebuild window: idle {result.idle_rebuild_ms:.1f} ms, "
            f"under load {result.loaded_rebuild_ms:.1f} ms "
            f"({inflation:.2f}x inflation)"
        )
    return "\n".join(lines)


def format_reliability_cdfs(result: ReliabilityStudyResult) -> str:
    from repro.metrics.cdf import RESPONSE_TIME_EDGES_MS

    headers = ["system", "mode"] + [
        f"<{edge:g}ms" for edge in RESPONSE_TIME_EDGES_MS
    ] + ["rest"]
    rows = []
    for key in sorted(result.cells):
        cell = result.cells[key]
        rows.append(
            [cell["label"], cell["mode"]] + list(cell["cdf"])
        )
    return format_table(
        headers,
        rows,
        title="Response-time CDFs, healthy vs faulted",
        float_format="{:.3f}",
    )


def format_mttdl_table(result: ReliabilityStudyResult) -> str:
    headers = ["configuration", "MTTDL_hours", "MTTDL_years", "availability"]
    rows = [
        (label, hours, hours / (24.0 * 365.0), avail)
        for label, hours, avail in result.mttdl_rows()
    ]
    table = format_table(
        headers,
        rows,
        title=(
            f"Analytic MTTDL/availability (drive MTTF "
            f"{DRIVE_MTTF_HOURS:.0f} h, arm share "
            f"{ARM_FAILURE_FRACTION:g})"
        ),
        float_format="{:.4g}",
    )
    mttr = result._raid5_mttr_hours()
    return (
        f"{table}\n"
        f"RAID-5 MTTR from measured rebuild rate scaled to full "
        f"capacity: {mttr:.1f} h"
    )
