"""Simulated requests per host-second, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload limit_study --seed 0 \\
        --seconds 30 --trace 0

A run repeats *rounds* for ``--seconds`` host seconds.  A round sets a
workload up from the seed (trace generation plus system construction)
and replays every configuration of the workload to completion.  With
``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over rounds); with ``--trace 1`` the
rounds alternate untraced and traced, and the JSON carries the
per-layer metrics of the traced rounds (see README.md).

Every round is checked: each configuration must drain and produce
finite figures, and the workload's figures digest must equal the
digest recorded for the seed in ``baseline.json`` (or, for an
unrecorded seed, the digest of the run's untimed warm-up round).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import heapq
import json
import math
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASELINE = HERE / "baseline.json"
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("limit_study", "raid_iso", "sptf_closed")
#: Rounds a run makes even when ``--seconds`` is shorter (with
#: ``--trace 1`` half of them are traced).
MIN_ROUNDS = 4

END_TO_END_UNITS = {
    "sim_requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "engine.events_per_req": "count",
    "engine.unattributed_us_per_req": "us",
    "replay.us_per_req": "us",
    "traced.sim_requests_per_s": "1/s",
    "traced.overhead_frac": "fraction",
    "workloads.generate_s": "s",
    "configs.build_s": "s",
    "array.submit_us_per_req": "us",
    "array.slices_per_req": "count",
    "drive.submit_us_per_req": "us",
    "drive.service_plan_calls_per_req": "count",
    "drive.service_plan_us_per_call": "us",
    "drive.positioning_calls_per_req": "count",
    "drive.positioning_us_per_call": "us",
    "drive.busy_frac": "fraction",
    "drive.queue_wait_ms": "sim_ms",
    "drive.nonzero_seek_frac": "fraction",
    "drive.repositions_per_req": "count",
    "scheduler.select_calls_per_req": "count",
    "scheduler.select_us_per_call": "us",
    "scheduler.pending_mean": "count",
    "cache.calls_per_req": "count",
    "cache.us_per_call": "us",
    "cache.read_hit_ratio": "fraction",
    "cache.write_installs_per_req": "count",
    "collector.record_us_per_req": "us",
    "fig8.sa2_power_savings": "fraction",
    "fig8.sa4_power_savings": "fraction",
    "fig8.err_pp": "pp",
}

#: Operations in one host-speed probe (about 20 ms on the recording
#: host) and the probe's working set; a round probes once before
#: set-up and once after replay.
PROBE_OPS = 20000
PROBE_SLOTS = 50000
#: Probe speed (operations per second) of the 2-CPU host the bounds and
#: baseline were recorded on.  End-to-end timings are scaled to it.
REFERENCE_SPEED = 700_000.0

#: Span-name prefixes whose self time is charged to replay, in the
#: order the attribution table prints them.
REPLAY_LAYERS = (
    "array.",
    "drive.submit",
    "drive.service_plan",
    "drive.positioning",
    "scheduler.",
    "cache.",
    "collector.",
)


def load_simulator() -> Optional[str]:
    """Import ``repro`` from this checkout's ``src``; an error or None."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        return f"cannot import the simulator from {SRC}: {exc}"
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        return f"imported repro from {origin}, not from {SRC}"
    return None


class HostProbe:
    """Measures host speed with a fixed pure-Python loop.

    The loop runs no simulator code: it draws random slots from a
    table of 50,000 small objects, updates them and keeps a priority
    queue of them, the operation mix of an event loop over a working
    set larger than the CPU caches.  The host's speed drifts by tens of
    percent within minutes on a shared machine and the probe drifts
    with it, so scaling a round's timings by ``REFERENCE_SPEED /
    speed()`` removes most of that drift.  Garbage collection is
    paused so that objects the simulator left alive cannot change the
    probe's cost.
    """

    def __init__(self) -> None:
        self.table = [_Slot(float(index)) for index in range(PROBE_SLOTS)]

    def speed(self) -> float:
        """Probe operations per second, right now."""
        table = self.table
        draw = random.Random(7).random
        push, pop = heapq.heappush, heapq.heappop
        queue: list = []
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for op in range(PROBE_OPS):
                slot = table[int(draw() * PROBE_SLOTS)]
                slot.hits += 1
                push(queue, (slot.due + draw(), op, slot))
                if len(queue) > 512:
                    due, _, slot = pop(queue)
                    slot.due = due
            return PROBE_OPS / (time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()


class _Slot:
    __slots__ = ("due", "hits")

    def __init__(self, due: float) -> None:
        self.due = due
        self.hits = 0


@dataclass
class Round:
    """One set-up-and-replay of a workload (configurations not kept)."""

    setup_s: float
    replay_s: float
    requests: int
    digest: str
    outcomes: list
    #: Mean probe speed before set-up and after replay.
    speed: float
    #: Traced rounds only: span name -> (calls, self ns) in this round,
    #: queue lengths seen by ``select``, and simulated drive occupancy.
    totals: Optional[Dict[str, tuple]] = None
    pending: int = 0
    occupancy: Optional[Dict[str, float]] = None

    @property
    def rate(self) -> float:
        return self.requests / self.replay_s

    @property
    def scale(self) -> float:
        """Host speed during this round, relative to the reference."""
        return self.speed / REFERENCE_SPEED

    @property
    def errors(self) -> List[str]:
        return [
            f"{outcome.label}: {outcome.error}"
            for outcome in self.outcomes
            if outcome.error
        ]


class Occupancy:
    """Queue wait and service time of every physical request.

    Appended to the drives' public ``on_complete`` hook; it reads
    simulated times only, so the figures are untouched.
    """

    def __init__(self) -> None:
        self.requests = 0
        self.wait_ms = 0.0
        self.service_ms = 0.0

    def __call__(self, request) -> None:
        start = request.start_service
        self.requests += 1
        self.wait_ms += start - request.arrival_time
        self.service_ms += request.completion_time - start

    def summary(self, configs) -> Dict[str, float]:
        drives = [drive for config in configs for drive in config.drives]
        return {
            "requests": self.requests,
            "wait_ms": self.wait_ms,
            "service_ms": self.service_ms,
            "drive_ms": sum(
                config.env.now * len(config.drives) for config in configs
            ),
            "nonzero_seeks": sum(d.stats.nonzero_seeks for d in drives),
            "repositions": sum(d.repositions for d in drives),
            "read_hits": sum(d.cache.stats.read_hits for d in drives),
            "read_lookups": sum(
                d.cache.stats.read_hits + d.cache.stats.read_misses
                for d in drives
            ),
        }


def run_round(
    cases, probe: HostProbe, workload: str, seed: int, tracer=None
) -> Round:
    """Set up and replay once; traced when ``tracer`` is given."""
    occupancy = Occupancy()
    if tracer is not None:
        before = tracer.totals()
        pending = tracer.pending_total
    speed = probe.speed()
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        configs = cases.SETUPS[workload](seed)
        built = time.perf_counter()
        if tracer is not None:
            for config in configs:
                for drive in config.drives:
                    drive.on_complete.append(occupancy)
            built = time.perf_counter()
        outcomes = [cases.replay_one(config) for config in configs]
        done = time.perf_counter()
    result = Round(
        setup_s=built - start,
        replay_s=done - built,
        requests=sum(outcome.requests for outcome in outcomes),
        digest=cases.workload_digest(outcomes),
        outcomes=outcomes,
        speed=(speed + probe.speed()) / 2.0,
    )
    if tracer is not None:
        result.totals = {
            name: (calls - before[name][0], ns - before[name][1])
            for name, (calls, ns) in tracer.totals().items()
        }
        result.pending = tracer.pending_total - pending
        result.occupancy = occupancy.summary(configs)
    return result


def recorded(workload: str, seed: int) -> Dict:
    """The baseline's floor figures and this workload/seed's digest."""
    data = json.loads(BASELINE.read_text())
    return {
        "floor": data["floor"],
        "digest": data["digests"][workload].get(str(seed)),
    }


def per_layer(rounds: List[Round], untraced_rate: float, fig8):
    """Per-layer metrics of the traced rounds, and self time per layer."""
    from layers import call_count, self_time_us

    totals: Dict[str, List[int]] = {}
    for item in rounds:
        for name, (calls, ns) in item.totals.items():
            entry = totals.setdefault(name, [0, 0])
            entry[0] += calls
            entry[1] += ns
    totals = {name: tuple(value) for name, value in totals.items()}
    requests = sum(item.requests for item in rounds)
    replay_us = sum(item.replay_s for item in rounds) * 1e6
    traced_rate = statistics.median(item.rate / item.scale for item in rounds)

    def per_req(value: float) -> float:
        return value / requests

    def per_call(prefix: str) -> float:
        calls = call_count(totals, prefix)
        return self_time_us(totals, prefix) / calls if calls else 0.0

    attributed = sum(self_time_us(totals, p) for p in REPLAY_LAYERS)
    sim = {
        key: sum(item.occupancy[key] for item in rounds)
        for key in rounds[0].occupancy
    }
    select_calls = call_count(totals, "scheduler.")
    metrics = {
        "engine.events_per_req": per_req(
            sum(o.events for item in rounds for o in item.outcomes)
        ),
        "engine.unattributed_us_per_req": per_req(replay_us - attributed),
        "replay.us_per_req": per_req(replay_us),
        "traced.sim_requests_per_s": traced_rate,
        "traced.overhead_frac": untraced_rate / traced_rate - 1.0,
        "workloads.generate_s": statistics.median(
            self_time_us(item.totals, "workloads.") / 1e6 for item in rounds
        ),
        "configs.build_s": statistics.median(
            self_time_us(item.totals, "configs.") / 1e6 for item in rounds
        ),
        "array.submit_us_per_req": per_req(self_time_us(totals, "array.")),
        "array.slices_per_req": per_req(call_count(totals, "drive.submit")),
        "drive.submit_us_per_req": per_req(
            self_time_us(totals, "drive.submit")
        ),
        "drive.service_plan_calls_per_req": per_req(
            call_count(totals, "drive.service_plan")
        ),
        "drive.service_plan_us_per_call": per_call("drive.service_plan"),
        "drive.positioning_calls_per_req": per_req(
            call_count(totals, "drive.positioning")
        ),
        "drive.positioning_us_per_call": per_call("drive.positioning"),
        "drive.busy_frac": sim["service_ms"] / sim["drive_ms"],
        "drive.queue_wait_ms": sim["wait_ms"] / sim["requests"],
        "drive.nonzero_seek_frac": sim["nonzero_seeks"] / sim["requests"],
        "drive.repositions_per_req": per_req(sim["repositions"]),
        "scheduler.select_calls_per_req": per_req(select_calls),
        "scheduler.select_us_per_call": per_call("scheduler."),
        "scheduler.pending_mean": (
            sum(item.pending for item in rounds) / select_calls
            if select_calls
            else 0.0
        ),
        "cache.calls_per_req": per_req(call_count(totals, "cache.")),
        "cache.us_per_call": per_call("cache."),
        "cache.read_hit_ratio": sim["read_hits"] / sim["read_lookups"],
        "cache.write_installs_per_req": per_req(
            call_count(totals, "cache.install_write")
        ),
        "collector.record_us_per_req": per_req(
            self_time_us(totals, "collector.")
        ),
    }
    metrics.update(fig8)
    layer_us = {
        prefix.rstrip("."): per_req(self_time_us(totals, prefix))
        for prefix in REPLAY_LAYERS
    }
    layer_us["engine.unattributed"] = metrics["engine.unattributed_us_per_req"]
    return metrics, layer_us


def bench(args) -> Dict:
    import cases
    from layers import LayerTracer

    record = recorded(args.workload, args.seed)
    attempted = failed = 0
    problems: List[str] = []

    if args.workload == "limit_study":
        # Untimed: ties the benchmark to the repo's correctness floor.
        digest, events = cases.floor_check()
        floor = record["floor"]
        attempted += 8 * cases.FLOOR_REQUESTS
        if (digest, events) != (floor["figures_sha256"], floor["events"]):
            failed += 8 * cases.FLOOR_REQUESTS
            problems.append(
                f"floor check: digest {digest[:8]} events {events}, "
                f"recorded {floor['figures_sha256'][:8]} "
                f"events {floor['events']}"
            )

    # Untimed warm-up round: fills lazy state and fixes the reference.
    probe = HostProbe()
    warm = run_round(cases, probe, args.workload, args.seed)
    reference = record["digest"] or warm.digest
    rounds = [warm]
    measured: List[Round] = []
    traced: List[Round] = []
    tracer = LayerTracer() if args.trace else None
    deadline = time.perf_counter() + args.seconds
    while len(measured) + len(traced) < MIN_ROUNDS or (
        time.perf_counter() < deadline
    ):
        if tracer is not None and len(measured) > len(traced):
            item = run_round(cases, probe, args.workload, args.seed, tracer)
            traced.append(item)
        else:
            item = run_round(cases, probe, args.workload, args.seed)
            measured.append(item)
        rounds.append(item)

    for item in rounds:
        attempted += item.requests
        errors = item.errors
        if not errors and item.digest != reference:
            errors = [f"digest {item.digest[:8]} != {reference[:8]}"]
        if errors:
            failed += item.requests
            problems.extend(errors)

    rate = statistics.median(item.rate / item.scale for item in measured)
    if args.trace:
        if args.workload == "raid_iso":
            fig8 = cases.fig8_fidelity(warm.outcomes)
        else:
            fig8 = cases.fig8_fidelity(
                run_round(cases, probe, "raid_iso", args.seed).outcomes
            )
        metrics, layer_us = per_layer(traced, rate, fig8)
        OUT.mkdir(exist_ok=True)
        spans = tracer.write_spans(
            OUT / f"spans-{args.workload}-seed{args.seed}.json.gz"
        )
        replay = metrics["replay.us_per_req"]
        calls = sum(calls for calls, _ in tracer.totals().values())
        print(f"traced rounds {len(traced)}, spans {calls}, {spans} kept")
        print(f"{'layer self time':<32}{'us/req':>10}")
        for name, value in layer_us.items():
            print(f"{name:<32}{value:>10.3f}")
        print(f"{'sum':<32}{sum(layer_us.values()):>10.3f}")
        print(f"{'replay':<32}{replay:>10.3f}")
        if not math.isclose(sum(layer_us.values()), replay, rel_tol=1e-9):
            problems.append("layer self times do not sum to replay time")
    else:
        metrics = {
            "sim_requests_per_s": rate,
            "setup_s": statistics.median(
                item.setup_s * item.scale for item in measured
            ),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        }
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(
        f"workload {args.workload} seed {args.seed}: {len(measured)} "
        f"timed rounds of {warm.requests} simulated requests, "
        f"digest {reference[:16]}"
    )
    print(
        f"unscaled {statistics.median(item.rate for item in measured):.1f} "
        "simulated requests per host-second; host speed "
        f"{statistics.median(item.scale for item in measured):.4f} "
        "of the reference"
    )
    print(f"error_rate {failed / attempted:.6f} ({failed}/{attempted})")
    for problem in problems[:20]:
        print(f"FAIL {problem}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    error = load_simulator()
    if error is not None:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    result = bench(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
