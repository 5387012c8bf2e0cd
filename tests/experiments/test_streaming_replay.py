"""Streamed replay: bit-identity with the in-memory path and the
bounded-memory guarantee.

The contract under test (see docs/serving.md): a ``StreamingTrace``
replay records completions through the *same* collector path as an
in-memory replay, so every figure is bit-identical — streaming only
changes where the producer gets its requests — while peak memory is
set by the chunk size, not the trace length.
"""

import hashlib
import json
import subprocess
import sys

import pytest

from repro.experiments.configs import build_hcsd_system
from repro.experiments.runner import run_trace
from repro.sim.engine import Environment
from repro.workloads.commercial import WEBSEARCH
from repro.workloads.streaming import StreamingTrace
from repro.workloads.trace import Trace, save_trace


def figures_digest(result):
    """Canonical digest over every non-percentile figure of a run."""
    collector = result.collector
    figures = {
        "mean_response_ms": collector.mean_response_ms,
        "max_response_ms": collector.response_stats.maximum,
        "mean_rotational_ms": collector.mean_rotational_ms,
        "mean_seek_ms": collector.mean_seek_ms,
        "completed": collector.completed,
        "cache_hits": collector.cache_hits,
        "response_cdf": collector.response_cdf(),
        "rotational_pdf": collector.rotational_pdf(),
        "power_watts": result.power.as_dict(),
        "elapsed_ms": result.elapsed_ms,
    }
    payload = json.dumps(figures, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "websearch.trace.gz"
    save_trace(path, WEBSEARCH.generate(1200))
    return path


def replay(trace, keep_samples=True, **kwargs):
    env = Environment()
    system = build_hcsd_system(env, WEBSEARCH)
    return run_trace(env, system, trace, keep_samples=keep_samples,
                     **kwargs)


class TestBitIdentity:
    def test_streamed_matches_in_memory_exactly(self, trace_file):
        stream = StreamingTrace(trace_file, chunk_requests=256)
        in_memory = replay(stream.materialize())
        streamed = replay(stream, keep_samples=False)
        assert figures_digest(streamed) == figures_digest(in_memory)
        assert streamed.requests == in_memory.requests == 1200

    def test_truncated_prefix_matches_in_memory(self, trace_file):
        stream = StreamingTrace(trace_file)
        prefix = stream.materialize(limit=400)
        assert len(prefix) == 400
        in_memory = replay(prefix)
        # The same prefix, replayed from disk: a fresh stream whose
        # file holds only those 400 requests.
        truncated = str(trace_file) + ".prefix.trace"
        save_trace(truncated, prefix)
        streamed = replay(StreamingTrace(truncated, chunk_requests=128),
                          keep_samples=False)
        assert figures_digest(streamed) == figures_digest(in_memory)

    def test_chunk_size_never_changes_figures(self, trace_file):
        digests = {
            figures_digest(
                replay(
                    StreamingTrace(trace_file, chunk_requests=size),
                    keep_samples=False,
                )
            )
            for size in (64, 997, 100_000)
        }
        assert len(digests) == 1

    def test_progress_callback_never_changes_figures(self, trace_file):
        stream = StreamingTrace(trace_file, chunk_requests=256)
        silent = replay(stream, keep_samples=False)
        chunks = []
        observed = replay(stream, keep_samples=False,
                          on_chunk=chunks.append)
        assert figures_digest(observed) == figures_digest(silent)
        assert chunks


class TestChunkProgress:
    def test_incremental_merge_accounting(self, trace_file):
        stream = StreamingTrace(trace_file, chunk_requests=256)
        progress = []
        result = replay(stream, keep_samples=False,
                        on_chunk=progress.append)
        assert [p.index for p in progress] == list(range(len(progress)))
        # Every chunk but the last is exactly the chunk size; the
        # cumulative merge ends on the full request count.
        assert [p.chunk.completed for p in progress[:-1]] == (
            [256] * (len(progress) - 1)
        )
        assert progress[-1].completed == result.collector.completed
        completed = [p.completed for p in progress]
        assert completed == sorted(completed)
        # Chunk collectors keep samples (exact chunk percentiles);
        # the cumulative aggregate does not (flat memory).
        assert progress[0].chunk.keep_samples
        assert progress[0].chunk.response_times
        assert not progress[-1].cumulative.keep_samples
        assert not progress[-1].cumulative.response_times
        assert progress[-1].simulated_ms <= result.elapsed_ms

    def test_chunk_requests_override(self, trace_file):
        stream = StreamingTrace(trace_file)  # default chunk size
        progress = []
        replay(stream, keep_samples=False, on_chunk=progress.append,
               chunk_requests=300)
        assert len(progress) == 4  # 1200 requests / 300


class TestRestrictions:
    def test_warmup_rejected_for_streams(self, trace_file):
        with pytest.raises(ValueError, match="warmup_fraction"):
            replay(StreamingTrace(trace_file), warmup_fraction=0.1)

    def test_on_chunk_rejected_for_in_memory_traces(self):
        trace = Trace(WEBSEARCH.generate(10).requests)
        with pytest.raises(ValueError, match="StreamingTrace"):
            replay(trace, on_chunk=lambda p: None)


BOUNDED_RSS_SCRIPT = r"""
import os, resource, sys, tempfile

from repro.experiments.configs import build_hcsd_system
from repro.experiments.runner import run_trace
from repro.sim.engine import Environment
from repro.workloads.commercial import WEBSEARCH
from repro.workloads.streaming import StreamingTrace

n = 1_000_000
path = os.path.join(sys.argv[1], "big.trace")
# Write the trace line by line: the generator side must stay flat too.
# Arrival spacing the drive can sustain — an overloaded open-loop
# trace legitimately accumulates its backlog in memory, which would
# measure queue growth, not the streaming pipeline.
with open(path, "w") as handle:
    handle.write("# trace: big\n")
    arrival = 0.0
    for i in range(n):
        arrival += 11.0 + (i % 7) * 0.5
        lba = (i * 4099) % 37_000_000  # within source disk 0
        kind = "R" if i % 10 < 7 else "W"
        handle.write(f"{arrival:.6f} 0 {lba} 8 {kind}\n")

env = Environment()
system = build_hcsd_system(env, WEBSEARCH)
result = run_trace(
    env,
    system,
    StreamingTrace(path, chunk_requests=32768),
    keep_samples=False,
)
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(result.collector.completed, peak_kib)
"""


@pytest.mark.bench_smoke
class TestBoundedMemory:
    def test_million_request_replay_rss_is_chunk_bounded(self, tmp_path):
        """A 1M-request trace replays inside a flat memory ceiling.

        Materializing 1M IORequest objects costs hundreds of MiB; the
        streamed path holds one 32768-request chunk plus in-flight
        requests, so peak RSS stays near the interpreter baseline.
        The 192 MiB cap is chunk-size-dependent headroom (several
        times the ~40 MiB observed peak at a 32768-request chunk),
        far below the materialized footprint — the assertion fails
        loudly if someone reintroduces a full read.
        """
        proc = subprocess.run(
            [sys.executable, "-c", BOUNDED_RSS_SCRIPT, str(tmp_path)],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        completed, peak_kib = map(int, proc.stdout.split())
        assert completed == 1_000_000
        assert peak_kib < 192 * 1024, (
            f"peak RSS {peak_kib // 1024} MiB exceeds the streamed "
            "replay's expected ceiling"
        )
