"""Invariant-checked chaos campaigns against a live queue.

A campaign is the full adversarial loop:

1. Build a set of unique job specs and compute their **clean
   baseline** payloads in-process (the simulator is deterministic, so
   the baseline is exactly what an undisturbed serve run would
   produce).
2. Replay a seeded :class:`~repro.chaos.plan.ChaosPlan` through a
   :class:`~repro.chaos.injector.ChaosInjector` while submitting the
   jobs (with client retries) and draining them through a supervised
   multi-worker ``serve()`` — workers get killed, writes get torn,
   disks fill, clocks skew, processes hang.
3. Run bounded **recovery rounds** with chaos off: scrub and requeue
   the queue, resubmit specs with no healthy path to ``done``, and
   drain again until every spec converges (or the recovery budget is
   exhausted).
4. Check the invariants the serve stack promises to keep under any of
   the injected failures:

   * **no_lost_jobs** — every submitted spec ends with a verified
     ``done`` result.
   * **no_divergent_results** — every ``done`` outcome for a spec
     reports the baseline figures digest, and the cached payload
     bytes equal the baseline bytes exactly (duplicates allowed,
     divergence never).
   * **corrupt_quarantined** — every quarantined record/payload has a
     ``.reason.json`` diagnostics sidecar, and no torn record remains
     in a live queue state.
   * **cache_integrity** — every payload left in the cache passes
     :func:`~repro.serve.jobs.verify_result_payload`; the cache never
     ends a campaign holding bytes it would serve corrupt.

The campaign itself draws no randomness: the plan *is* the
randomness, so ``run_campaign(seed=7)`` is replayable bit-for-bit.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List, Optional, Sequence

from repro.chaos.injector import ChaosInjector, applied_events
from repro.chaos.plan import SCENARIO_ALIASES, ChaosPlan
from repro.obs.session import session
from repro.serve.cache import ResultCache
from repro.serve.jobs import (
    JobSpec,
    cache_key,
    result_payload_bytes,
    run_job,
    verify_result_payload,
)
from repro.serve.queue import CORRUPT_STATE, QUEUE_STATES, JobQueue
from repro.serve.service import serve, submit

__all__ = ["CampaignResult", "resolve_scenarios", "run_campaign"]

#: The workload rotation for campaign job specs.
_WORKLOADS = ("financial", "websearch", "tpcc", "tpch")


def resolve_scenarios(
    scenarios: Optional[Sequence[str]],
) -> Optional[List[str]]:
    """Map CLI spellings (``kill``, ``torn-write``) to canonical
    kinds, passing canonical names through; ``None`` means all."""
    if scenarios is None:
        return None
    resolved = []
    for name in scenarios:
        name = name.strip()
        if not name:
            continue
        kind = SCENARIO_ALIASES.get(name, name)
        if kind not in resolved:
            resolved.append(kind)
    return resolved or None


class CampaignResult:
    """The outcome of one campaign: invariants, counters, the plan."""

    def __init__(
        self,
        seed: Optional[int],
        scenarios: Optional[List[str]],
        plan: ChaosPlan,
        applied: List[Dict],
        invariants: Dict[str, bool],
        violations: List[str],
        counters: Dict[str, object],
    ):
        self.seed = seed
        self.scenarios = scenarios
        self.plan = plan
        self.applied = applied
        self.invariants = invariants
        self.violations = violations
        self.counters = counters

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict:
        return {
            "schema": "repro-chaos-campaign/1",
            "ok": self.ok,
            "seed": self.seed,
            "scenarios": self.scenarios,
            "plan": self.plan.to_dict(),
            "applied": self.applied,
            "invariants": self.invariants,
            "violations": self.violations,
            "counters": self.counters,
        }


def _campaign_specs(seed: int, jobs: int, requests: int) -> List[JobSpec]:
    """``jobs`` unique specs: workload rotation, per-spec trace seeds
    derived from the campaign seed (distinct cache keys per job)."""
    return [
        JobSpec(
            workload=_WORKLOADS[index % len(_WORKLOADS)],
            requests=requests,
            seed=1000 * seed + index,
        )
        for index in range(jobs)
    ]


def _spec_records(queue: JobQueue) -> Dict[str, Dict[str, List[Dict]]]:
    """All readable records grouped ``cache_key -> state -> [record]``.

    Torn records are skipped (the caller scrubs first, so anything
    unreadable here is already quarantined or racing to be).
    """
    grouped: Dict[str, Dict[str, List[Dict]]] = {}
    for state in QUEUE_STATES:
        for job_id in queue.jobs(state):
            record, problem = queue._read_record(
                queue._record_path(state, job_id)
            )
            if record is None or problem is not None:
                continue
            key = record.get("cache_key")
            if not key:
                continue
            record["job_id"] = job_id
            grouped.setdefault(key, {}).setdefault(state, []).append(
                record
            )
    return grouped


def _cache_corrupt_entries(cache_root: str) -> List[str]:
    corrupt_root = os.path.join(cache_root, "corrupt")
    found = []
    for directory, _, files in os.walk(corrupt_root):
        for name in files:
            if name.endswith(".json") and ".reason." not in name:
                found.append(os.path.join(directory, name))
    return sorted(found)


def _missing_sidecars(paths: List[str]) -> List[str]:
    return [
        path
        for path in paths
        if not os.path.exists(path[: -len(".json")] + ".reason.json")
    ]


def run_campaign(
    queue_dir: str,
    seed: int = 0,
    scenarios: Optional[Sequence[str]] = None,
    plan: Optional[ChaosPlan] = None,
    jobs: int = 4,
    workers: int = 2,
    requests: int = 150,
    lease_s: float = 2.0,
    max_attempts: int = 8,
    max_restarts: int = 6,
    recovery_timeout_s: float = 120.0,
    durable: bool = False,
) -> CampaignResult:
    """Run one seeded chaos campaign against ``queue_dir``.

    ``plan`` overrides generation (``seed`` then only names the spec
    trace seeds); otherwise the plan is
    ``ChaosPlan.generate(seed, scenarios, workers, lease_s)``.
    ``durable`` is off by default — campaigns hammer a scratch queue
    and the fsyncs would dominate the wall clock; the chaos being
    injected (torn writes) happens above the durability layer either
    way.

    Never run against a production queue: the injector's latches and
    the recovery resubmissions assume the campaign owns the directory.
    """
    scenario_kinds = resolve_scenarios(scenarios)
    if plan is None:
        plan = ChaosPlan.generate(
            seed, scenarios=scenario_kinds, workers=workers,
            lease_s=lease_s,
        )
    specs = _campaign_specs(seed, jobs, requests)

    # Clean baselines, computed before any chaos: the byte-identity
    # yardstick every post-recovery result is held to.
    baselines: Dict[str, Dict] = {}
    for spec in specs:
        key = cache_key(spec)
        payload, _ = run_job(spec)
        baselines[key] = {
            "spec": spec,
            "digest": payload["figures_sha256"],
            "payload": result_payload_bytes(payload),
        }

    queue = JobQueue(
        queue_dir,
        lease_s=lease_s,
        max_attempts=max_attempts,
        durable=durable,
    )
    cache_root = os.path.join(str(queue_dir), "cache")
    cache = ResultCache(cache_root)
    state_dir = os.path.join(str(queue_dir), "chaos")
    injector = ChaosInjector(plan, state_dir=state_dir)

    submitted = 0
    resubmitted = 0
    exit_codes: List[int] = []
    recovery_rounds = 0
    violations: List[str] = []

    # -- phase 1: chaos ---------------------------------------------------
    with session(failpoints=injector):
        for spec in specs:
            submit(
                queue_dir, spec,
                retries=6, deadline_s=30.0, retry_seed=seed,
            )
            submitted += 1
        exit_codes.extend(
            serve(
                queue_dir,
                workers=workers,
                drain=True,
                poll_interval_s=0.05,
                lease_s=lease_s,
                max_attempts=max_attempts,
                max_restarts=max_restarts,
                durable=durable,
            )
        )
    chaos_incarnations = len(exit_codes)

    # -- phase 2: recovery (chaos off) ------------------------------------
    def satisfied(key: str, grouped) -> bool:
        baseline = baselines[key]
        for record in grouped.get(key, {}).get("done", []):
            outcome = record.get("outcome") or {}
            if outcome.get("figures_sha256") != baseline["digest"]:
                continue
            stored = cache.get(key)
            if stored is None or verify_result_payload(stored):
                continue
            if stored == baseline["payload"]:
                return True
        return False

    deadline = time.monotonic() + recovery_timeout_s
    while True:
        queue.scrub()
        queue.requeue_stale()
        grouped = _spec_records(queue)
        missing = [
            key for key in baselines if not satisfied(key, grouped)
        ]
        if not missing:
            break
        if time.monotonic() > deadline:
            violations.append(
                f"recovery timeout: {len(missing)} spec(s) never "
                f"reached a verified done state"
            )
            break
        for key in missing:
            states = grouped.get(key, {})
            if states.get("pending") or states.get("claimed"):
                continue  # a live path exists; let the drain finish it
            stored = cache.get(key)
            if stored is not None and verify_result_payload(stored):
                # A torn payload squats on the first-write-wins slot;
                # clear it so the rerun can store clean bytes.
                cache.quarantine(
                    key, verify_result_payload(stored) or "corrupt"
                )
            submit(queue_dir, baselines[key]["spec"])
            resubmitted += 1
        exit_codes.extend(
            serve(
                queue_dir,
                workers=workers,
                drain=True,
                poll_interval_s=0.05,
                lease_s=lease_s,
                max_attempts=max_attempts,
                max_restarts=max_restarts,
                durable=durable,
            )
        )
        recovery_rounds += 1

    # -- phase 3: invariants ----------------------------------------------
    queue.scrub()
    grouped = _spec_records(queue)

    lost = [key for key in baselines if not satisfied(key, grouped)]
    for key in lost:
        violations.append(
            f"lost job: spec {key[:12]} has no verified done result"
        )

    for key, baseline in baselines.items():
        digests = {
            (record.get("outcome") or {}).get("figures_sha256")
            for record in grouped.get(key, {}).get("done", [])
        }
        divergent = digests - {baseline["digest"]}
        if divergent:
            violations.append(
                f"divergent results for spec {key[:12]}: done outcomes "
                f"report {sorted(d or 'missing' for d in divergent)} "
                f"besides the baseline digest"
            )
        stored = cache.get(key)
        if stored is not None and stored != baseline["payload"]:
            violations.append(
                f"divergent cache payload for spec {key[:12]}"
            )

    corrupt_records = [
        os.path.join(queue.root, CORRUPT_STATE, f"{job_id}.json")
        for job_id in queue.jobs(CORRUPT_STATE)
    ]
    corrupt_cache = _cache_corrupt_entries(cache_root)
    for path in _missing_sidecars(corrupt_records + corrupt_cache):
        violations.append(
            f"quarantined file without diagnostics sidecar: {path}"
        )

    cache_problems = []
    for key in cache.keys():
        stored = cache.get(key)
        problem = (
            verify_result_payload(stored)
            if stored is not None
            else "vanished during check"
        )
        if problem is not None:
            cache_problems.append((key, problem))
    for key, problem in cache_problems:
        violations.append(f"cache integrity: key {key[:12]}: {problem}")

    invariants = {
        "no_lost_jobs": not lost,
        "no_divergent_results": not any(
            v.startswith("divergent") for v in violations
        ),
        "corrupt_quarantined": not any(
            v.startswith("quarantined file") for v in violations
        ),
        "cache_integrity": not cache_problems,
    }

    counters = {
        "jobs": jobs,
        "submitted": submitted,
        "resubmitted": resubmitted,
        "recovery_rounds": recovery_rounds,
        "worker_exit_codes": exit_codes,
        "chaos_restarts": max(0, chaos_incarnations - workers),
        "plan_events": len(plan),
        "applied_events": len(applied_events(state_dir)),
        "quarantined_records": len(queue.jobs(CORRUPT_STATE)),
        "quarantined_cache_payloads": len(corrupt_cache),
        "queue_counts": queue.counts(),
    }
    return CampaignResult(
        seed=plan.seed if plan.seed is not None else seed,
        scenarios=scenario_kinds,
        plan=plan,
        applied=applied_events(state_dir),
        invariants=invariants,
        violations=violations,
        counters=counters,
    )
