"""The open-loop trace driver shared by every experiment.

Replays a trace against a storage system: each request is submitted at
its arrival time regardless of completions (an *open* system, like the
paper's trace-driven DiskSim runs), then the run continues until the
last request drains.  Returns the measurement collector, the power
breakdown, and run metadata.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.disk.request import IORequest
from repro.metrics.collector import RequestCollector
from repro.obs.metrics import metrics_for
from repro.obs.tracer import tracer_for
from repro.power.accounting import PowerBreakdown, array_power
from repro.raid.array import DiskArray
from repro.sim.engine import Environment
from repro.workloads.streaming import StreamingTrace
from repro.workloads.trace import Trace

__all__ = ["ChunkProgress", "RunResult", "run_trace"]


@dataclass
class RunResult:
    """Everything an experiment needs from one simulation run."""

    label: str
    collector: RequestCollector
    power: PowerBreakdown
    elapsed_ms: float
    requests: int

    @property
    def mean_response_ms(self) -> float:
        return self.collector.mean_response_ms

    def response_cdf(self) -> List[float]:
        return self.collector.response_cdf()

    def rotational_pdf(self) -> List[float]:
        return self.collector.rotational_pdf()

    def percentile(self, q: float) -> float:
        return self.collector.response_percentile(q)


@dataclass
class ChunkProgress:
    """Telemetry for one completed chunk of a streamed replay.

    ``chunk`` holds exact per-chunk measurements (samples included, so
    chunk percentiles are exact); ``cumulative`` is the incremental
    :meth:`~repro.metrics.collector.RequestCollector.merge` of every
    chunk so far with samples dropped — the flat-memory running
    aggregate a progress consumer (e.g. a serve worker heartbeat)
    reads without waiting for the run to drain.
    """

    index: int
    completed: int
    simulated_ms: float
    chunk: RequestCollector
    cumulative: RequestCollector


def run_trace(
    env: Environment,
    system: DiskArray,
    trace: Trace,
    keep_samples: bool = True,
    label: Optional[str] = None,
    warmup_fraction: float = 0.0,
    on_chunk: Optional[Callable[[ChunkProgress], None]] = None,
    chunk_requests: Optional[int] = None,
) -> RunResult:
    """Replay ``trace`` against ``system`` and collect measurements.

    The trace's requests are cloned before submission, so the same
    trace object can be replayed against many configurations without
    cross-contamination of measurement fields.

    ``warmup_fraction`` discards the first fraction of completions
    from the collector (cold caches, parked arms), for steady-state
    measurements; power accounting always covers the whole run.

    ``trace`` may also be a
    :class:`~repro.workloads.streaming.StreamingTrace`: requests are
    then pulled from disk in bounded-memory chunks and submitted
    without ever materializing the trace, and the collector's figures
    are bit-identical to an in-memory replay of the same file (the
    record path is unchanged; only the producer's sourcing differs).
    ``on_chunk``, if given, is called with a :class:`ChunkProgress`
    after every ``chunk_requests`` completions (default: the stream's
    chunk size): per-chunk collectors are merged incrementally so the
    progress aggregate stays flat in memory too.
    """
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}"
        )
    if isinstance(trace, StreamingTrace):
        if warmup_fraction > 0.0:
            raise ValueError(
                "warmup_fraction requires a known trace length; "
                "materialize the stream or use warmup_fraction=0"
            )
        return _run_trace_streaming(
            env,
            system,
            trace,
            keep_samples=keep_samples,
            label=label,
            on_chunk=on_chunk,
            chunk_requests=chunk_requests,
        )
    if on_chunk is not None or chunk_requests is not None:
        raise ValueError(
            "on_chunk/chunk_requests apply to StreamingTrace replays"
        )
    collector = RequestCollector(keep_samples=keep_samples)
    warmup_remaining = int(len(trace) * warmup_fraction)
    warmed_up = 0

    if warmup_remaining:
        def record(request: IORequest) -> None:
            nonlocal warmed_up
            if warmed_up < warmup_remaining:
                warmed_up += 1
                return
            collector.record(request)
        system.on_complete.append(record)
    else:
        # No warmup (the default): skip the wrapper frame and let the
        # completion hook call the collector directly.
        system.on_complete.append(collector.record)
    # ``clone()`` with no overrides is exactly this positional fast
    # path; calling it directly skips one wrapper frame per request.
    fresh: List[IORequest] = [
        request.clone_slice(
            request.lba,
            request.size,
            request.is_read,
            request.arrival_time,
            request.source_disk,
        )
        for request in trace
    ]
    # A Trace validates (or sorts) arrival order at construction, but
    # ``trace`` may be any iterable of requests.  The producer below
    # stamps each request's arrival at submission time, so an
    # out-of-order request would be *silently* submitted late with a
    # rewritten arrival time, corrupting every response-time figure.
    # Fail loudly instead.
    for index, (earlier, later) in enumerate(zip(fresh, fresh[1:])):
        if later.arrival_time < earlier.arrival_time:
            raise ValueError(
                f"run_trace: trace arrival times not monotone at request "
                f"{index + 1} ({later.arrival_time} after "
                f"{earlier.arrival_time}); sort the trace first, e.g. "
                "Trace(requests, sort=True)"
            )

    def producer():
        timeout = env.timeout
        submit = system.submit
        for request in fresh:
            delay = request.arrival_time - env._now
            if delay > 0:
                yield timeout(delay)
            request.arrival_time = env._now
            submit(request)

    # Every span a run records fires inside env.run(); scoping the run
    # by its label separates identically named drives of different
    # runs onto distinct exporter tracks (e.g. the HC-SD drive, which
    # is always called after its spec, across four workloads).
    run_label = label or system.label
    tracer = tracer_for(env)
    metrics = metrics_for(env)
    wall_start = time.perf_counter() if metrics.enabled else 0.0
    env.process(producer())
    with tracer.scope(run_label):
        if tracer.enabled:
            tracer.instant(
                "run-start",
                env.now,
                (system.label, "run"),
                args={"requests": len(fresh)},
            )
        env.run()
        if tracer.enabled:
            tracer.instant(
                "run-end",
                env.now,
                (system.label, "run"),
                args={"requests": len(fresh), "elapsed_ms": env.now},
            )
    if tracer.enabled:
        _record_run_telemetry(tracer.telemetry, env, collector, "memory")
    if metrics.enabled:
        # Wall-clock only — never simulated time — so figures stay
        # bit-identical with metrics on or off.
        wall_ms = (time.perf_counter() - wall_start) * 1000.0
        metrics.counter(
            "repro_runs_total", "Completed replays", labels=("mode",)
        ).labels(mode="memory").inc()
        metrics.histogram(
            "repro_run_wall_ms", "Wall-clock time of one replay"
        ).observe(wall_ms)
    completed = collector.completed + warmed_up
    if completed != len(fresh):
        raise RuntimeError(
            f"run did not drain: {completed} of {len(fresh)} "
            "requests completed"
        )
    elapsed = max(env.now, 1e-9)
    return RunResult(
        label=label or system.label,
        collector=collector,
        power=array_power(system.drives, elapsed),
        elapsed_ms=elapsed,
        requests=len(fresh),
    )


#: Bucket bounds for a whole run's simulated span (ms).
_RUN_ELAPSED_BUCKETS_MS = (1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8)


def _record_run_telemetry(
    telemetry, env: Environment, collector: RequestCollector, mode: str
) -> None:
    """Run-level counters and simulated-time histograms for a tracer."""
    telemetry.counter(
        "repro_sim_runs_total", "Traced replays", labels=("mode",)
    ).labels(mode=mode).inc()
    telemetry.histogram(
        "repro_run_elapsed_ms",
        "Simulated span of one replay",
        buckets=_RUN_ELAPSED_BUCKETS_MS,
    ).observe(env.now)
    if collector.completed:
        telemetry.histogram(
            "repro_run_mean_response_ms",
            "Mean simulated response time of one replay",
        ).observe(collector.mean_response_ms)


def _run_trace_streaming(
    env: Environment,
    system: DiskArray,
    trace: StreamingTrace,
    keep_samples: bool,
    label: Optional[str],
    on_chunk: Optional[Callable[[ChunkProgress], None]],
    chunk_requests: Optional[int],
) -> RunResult:
    """Replay a disk-backed stream without materializing it.

    The measurement path is *identical* to the in-memory replay: one
    collector records every completion in the same order the serial
    kernel produces, so every figure (means, CDFs, PDFs, power) is
    bit-identical to ``run_trace`` over ``trace.materialize()`` —
    streaming only changes where the producer gets its requests.
    Memory is bounded by one parse chunk plus in-flight requests (plus
    retained samples if ``keep_samples=True``; pass ``False`` for a
    flat ceiling on multi-million-request traces).
    """
    chunk_size = chunk_requests or trace.chunk_requests
    if chunk_size < 1:
        raise ValueError(
            f"chunk_requests must be >= 1, got {chunk_size}"
        )
    collector = RequestCollector(keep_samples=keep_samples)
    submitted = 0
    progress_state = None
    if on_chunk is None:
        system.on_complete.append(collector)
    else:
        # Per-chunk collectors keep samples (exact chunk percentiles)
        # and merge incrementally into a sample-free cumulative
        # aggregate, so progress costs O(chunk), not O(trace).
        progress_state = {
            "chunk": RequestCollector(keep_samples=True),
            "cumulative": RequestCollector(keep_samples=False),
            "index": 0,
        }

        def record(request: IORequest) -> None:
            collector.record(request)
            chunk = progress_state["chunk"]
            chunk.record(request)
            if chunk.completed >= chunk_size:
                _flush_chunk(progress_state, on_chunk, env)

        system.on_complete.append(record)

    stream_stats = {"chunks": 0, "peak": 0}

    def producer():
        nonlocal submitted
        timeout = env.timeout
        submit = system.submit
        for chunk in trace.iter_chunks(chunk_size):
            stream_stats["chunks"] += 1
            if len(chunk) > stream_stats["peak"]:
                stream_stats["peak"] = len(chunk)
            for request in chunk:
                delay = request.arrival_time - env._now
                if delay > 0:
                    yield timeout(delay)
                request.arrival_time = env._now
                submit(request)
                submitted += 1

    run_label = label or system.label
    tracer = tracer_for(env)
    metrics = metrics_for(env)
    wall_start = time.perf_counter() if metrics.enabled else 0.0
    env.process(producer())
    with tracer.scope(run_label):
        if tracer.enabled:
            tracer.instant(
                "run-start",
                env.now,
                (system.label, "run"),
                args={"trace": trace.name, "streamed": True},
            )
        env.run()
        if tracer.enabled:
            tracer.instant(
                "run-end",
                env.now,
                (system.label, "run"),
                args={"requests": submitted, "elapsed_ms": env.now},
            )
    if progress_state is not None and progress_state["chunk"].completed:
        _flush_chunk(progress_state, on_chunk, env)
    if tracer.enabled:
        _record_run_telemetry(tracer.telemetry, env, collector, "streamed")
    if metrics.enabled:
        # Wall-clock only, measured after the run: replay throughput
        # and chunking shape, with zero work on the simulated path.
        wall_s = max(time.perf_counter() - wall_start, 1e-9)
        metrics.counter(
            "repro_runs_total", "Completed replays", labels=("mode",)
        ).labels(mode="streamed").inc()
        metrics.counter(
            "repro_replay_chunks_total", "Streamed chunks replayed"
        ).inc(stream_stats["chunks"])
        metrics.counter(
            "repro_replay_requests_total", "Requests replayed from streams"
        ).inc(submitted)
        metrics.gauge(
            "repro_replay_peak_chunk_requests",
            "Largest chunk of the last streamed replay",
        ).set(stream_stats["peak"])
        metrics.gauge(
            "repro_replay_requests_per_s",
            "Wall-clock replay rate of the last streamed run",
        ).set(submitted / wall_s)
        metrics.histogram(
            "repro_run_wall_ms", "Wall-clock time of one replay"
        ).observe(wall_s * 1000.0)
    if collector.completed != submitted:
        raise RuntimeError(
            f"streamed run did not drain: {collector.completed} of "
            f"{submitted} requests completed"
        )
    if progress_state is not None:
        merged = progress_state["cumulative"]
        if merged.completed != collector.completed:
            raise RuntimeError(
                "chunk-merge accounting mismatch: merged "
                f"{merged.completed} completions, collector saw "
                f"{collector.completed}"
            )
    elapsed = max(env.now, 1e-9)
    return RunResult(
        label=run_label,
        collector=collector,
        power=array_power(system.drives, elapsed),
        elapsed_ms=elapsed,
        requests=submitted,
    )


def _flush_chunk(progress_state, on_chunk, env) -> None:
    chunk = progress_state["chunk"]
    progress_state["cumulative"] = cumulative = progress_state[
        "cumulative"
    ].merge(chunk)
    on_chunk(
        ChunkProgress(
            index=progress_state["index"],
            completed=cumulative.completed,
            simulated_ms=env.now,
            chunk=chunk,
            cumulative=cumulative,
        )
    )
    progress_state["index"] += 1
    progress_state["chunk"] = RequestCollector(keep_samples=True)
