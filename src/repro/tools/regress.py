"""Benchmark regression gate: compare a run against a baseline snapshot.

``python -m repro bench --check BASELINE.json`` runs the reference
benchmark and calls :func:`compare_bench` to validate the fresh result
against the committed snapshot.  Three classes of check:

* **Correctness (hard).**  Both snapshots must validate against the
  bench schema, the current run's serial and parallel figures must be
  bit-identical (``figures_identical``), and — when the two snapshots
  ran the same workloads at the same request count — the figure
  digests must match exactly.  The simulation is deterministic across
  machines and Python versions, so a digest mismatch means the
  *simulator's output changed*, which is precisely what the gate
  exists to catch.
* **Throughput (tolerance-gated).**  Serial events/second may drift
  with hardware and interpreter; the gate fails only when the current
  run falls below ``tolerance`` × baseline (default 0.5).  Pass
  ``tolerance=0`` to report the delta without gating on it.  A
  baseline recorded with a different ``cpu_count`` belongs to a
  different host class — its wall-clocks (and which worker counts
  were timed at all) are not a yardstick here — so the throughput
  gate auto-disables with a note while the correctness gates above
  continue to apply in full.
* **Context (informational).**  Request counts, workload sets and
  host differences are reported as notes so a CI log explains *why*
  a digest comparison was or wasn't performed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.tools.bench import validate_bench

__all__ = ["CheckResult", "compare_bench", "format_check"]

#: Default minimum acceptable fraction of baseline serial throughput.
DEFAULT_TOLERANCE = 0.5


@dataclass
class CheckResult:
    """Outcome of one baseline comparison."""

    problems: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    #: current serial events/s over baseline serial events/s (None
    #: when either side has no serial entry).
    throughput_ratio: Optional[float] = None
    digest_checked: bool = False

    @property
    def ok(self) -> bool:
        return not self.problems


def _serial_events_per_s(snapshot: Dict) -> Optional[float]:
    for entry in snapshot.get("results", []):
        if entry.get("skipped"):
            continue
        if entry.get("workers") == 1:
            return entry.get("events_per_s")
    return None


def compare_bench(
    baseline: Dict,
    current: Dict,
    tolerance: float = DEFAULT_TOLERANCE,
) -> CheckResult:
    """Compare ``current`` against ``baseline``; see module docstring.

    Both snapshots are validated on entry; one that fails validation
    (an older schema included) is reported as a problem.
    """
    result = CheckResult()
    try:
        validate_bench(baseline)
    except ValueError as error:
        result.problems.append(f"baseline invalid: {error}")
        return result
    try:
        validate_bench(current)
    except ValueError as error:
        result.problems.append(f"current run invalid: {error}")
        return result

    if not current.get("figures_identical", False):
        result.problems.append(
            "current run: serial and parallel figures differ "
            "(figures_identical is false) — determinism broken"
        )

    comparable = (
        baseline["requests"] == current["requests"]
        and baseline["workloads"] == current["workloads"]
    )
    if comparable:
        result.digest_checked = True
        if baseline["figures_sha256"] != current["figures_sha256"]:
            result.problems.append(
                "figure digest mismatch: baseline "
                f"{baseline['figures_sha256'][:12]}… vs current "
                f"{current['figures_sha256'][:12]}… — simulation "
                "output changed"
            )
        if baseline["events"] != current["events"]:
            result.problems.append(
                f"engine event count changed: baseline "
                f"{baseline['events']} vs current {current['events']}"
            )
    else:
        result.notes.append(
            "digest not compared: baseline ran "
            f"{baseline['requests']} requests over "
            f"{baseline['workloads']}, current ran "
            f"{current['requests']} over {current['workloads']}"
        )

    base_cpu = baseline.get("cpu_count")
    this_cpu = current.get("cpu_count")
    cpu_comparable = base_cpu == this_cpu
    if not cpu_comparable:
        # A baseline recorded on a different host class is not a
        # throughput yardstick: its wall-clocks (and which worker
        # counts were even timed vs skipped) reflect that machine.
        # The correctness gates (digest, event count) are host
        # independent and still apply in full; only the throughput
        # gate is disabled, and the mismatch is surfaced as a note so
        # a CI log on new hardware explains why no wall-clock verdict
        # was rendered instead of failing the whole check.
        result.notes.append(
            f"cpu_count differs (baseline {base_cpu}, current "
            f"{this_cpu}); throughput gate disabled for this "
            "comparison — re-record the baseline on this host to "
            "re-arm it"
        )

    base_rate = _serial_events_per_s(baseline)
    this_rate = _serial_events_per_s(current)
    if base_rate and this_rate:
        ratio = this_rate / base_rate
        result.throughput_ratio = ratio
        result.notes.append(
            f"serial throughput: {this_rate:.0f} events/s vs baseline "
            f"{base_rate:.0f} ({ratio:.2f}x)"
        )
        if cpu_comparable and tolerance > 0 and ratio < tolerance:
            result.problems.append(
                f"serial throughput regressed to {ratio:.2f}x of "
                f"baseline (floor {tolerance:.2f}x): "
                f"{this_rate:.0f} vs {base_rate:.0f} events/s"
            )
    else:
        result.notes.append(
            "serial throughput not compared (missing workers=1 entry)"
        )

    base_kernel = baseline.get("kernel")
    this_kernel = current.get("kernel")
    if base_kernel and this_kernel:
        kernel_ratio = (
            this_kernel["events_per_s"] / base_kernel["events_per_s"]
        )
        result.notes.append(
            f"kernel microbench: {this_kernel['events_per_s']:.0f} "
            f"events/s vs baseline {base_kernel['events_per_s']:.0f} "
            f"({kernel_ratio:.2f}x, informational)"
        )

    if baseline.get("platform") != current.get("platform"):
        result.notes.append(
            f"platform differs: baseline {baseline.get('platform')!r}, "
            f"current {current.get('platform')!r}"
        )
    return result


def format_check(result: CheckResult) -> str:
    """Human-readable verdict for CI logs."""
    lines = []
    if result.ok:
        digest = (
            "figure digest identical"
            if result.digest_checked
            else "digest comparison skipped"
        )
        lines.append(f"bench check PASSED ({digest})")
    else:
        lines.append("bench check FAILED")
        lines.extend(f"  problem: {item}" for item in result.problems)
    lines.extend(f"  note: {item}" for item in result.notes)
    return "\n".join(lines)
