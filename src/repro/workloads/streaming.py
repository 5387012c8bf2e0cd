"""Bounded-memory trace streaming.

A :class:`StreamingTrace` is the disk-backed sibling of
:class:`~repro.workloads.trace.Trace`: it yields requests straight
from a trace file (any format in
:mod:`repro.workloads.formats`, gzip transparent) without ever
materializing the full request list, so a multi-million-request
SPC-style trace replays at a flat memory ceiling set by the chunk
size, not the trace length.

The stream is *re-iterable* — every iteration reopens the file — so
one ``StreamingTrace`` can be replayed against many configurations,
exactly like an in-memory ``Trace``.  Arrival-time monotonicity is
validated on the fly as requests are yielded; an out-of-order file
fails loudly at the offending request instead of silently corrupting
response times (use ``repro trace convert --sort`` to repair one).
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterator, List, Optional, Union

from repro.disk.request import IORequest
from repro.obs.session import current_session
from repro.workloads.formats import (
    _new_skip_counts,
    detect_trace_format,
    iter_trace_requests,
    stat_trace,
)
from repro.workloads.trace import Trace

__all__ = ["DEFAULT_CHUNK_REQUESTS", "StreamingTrace"]

#: Default replay chunk: large enough to amortize parse overhead,
#: small enough that a chunk of requests is a few MB resident.
DEFAULT_CHUNK_REQUESTS = 65536


class StreamingTrace:
    """A trace file exposed as a bounded-memory request stream."""

    def __init__(
        self,
        path: Union[str, os.PathLike],
        trace_format: Optional[str] = None,
        name: Optional[str] = None,
        chunk_requests: int = DEFAULT_CHUNK_REQUESTS,
    ):
        if chunk_requests < 1:
            raise ValueError(
                f"chunk_requests must be >= 1, got {chunk_requests}"
            )
        if not os.path.exists(path):
            raise FileNotFoundError(f"no trace file at {path}")
        self.path = str(path)
        self.trace_format = trace_format or detect_trace_format(path)
        self.name = name or _stem(self.path)
        self.chunk_requests = chunk_requests
        #: Per-reason skipped-line counts of the last *complete*
        #: iteration pass (empty until one finishes).
        self.last_skipped: Dict[str, int] = {}

    def __repr__(self) -> str:
        return (
            f"StreamingTrace({self.path!r}, format={self.trace_format!r}, "
            f"chunk_requests={self.chunk_requests})"
        )

    def __iter__(self) -> Iterator[IORequest]:
        """Yield requests in file order, enforcing monotone arrivals."""
        last_arrival = -math.inf
        skipped = _new_skip_counts()
        for index, request in enumerate(
            iter_trace_requests(
                self.path, self.trace_format, skipped=skipped
            )
        ):
            if request.arrival_time < last_arrival:
                raise ValueError(
                    f"streaming trace {self.name!r} arrival times not "
                    f"monotone at request {index}: "
                    f"{request.arrival_time} after {last_arrival}; "
                    "convert with --sort first"
                )
            last_arrival = request.arrival_time
            yield request
        self.last_skipped = {k: v for k, v in skipped.items() if v}
        metrics = current_session().metrics
        if metrics.enabled and self.last_skipped:
            family = metrics.counter(
                "repro_trace_skipped_lines_total",
                "Trace lines the readers ignored, by reason",
                labels=("reason",),
            )
            for reason, count in sorted(self.last_skipped.items()):
                family.labels(reason=reason).inc(count)

    def iter_chunks(
        self, chunk_requests: Optional[int] = None
    ) -> Iterator[List[IORequest]]:
        """Yield lists of at most ``chunk_requests`` requests.

        This is the bounded-memory unit the replay pipeline works in:
        at any instant only one chunk (plus in-flight requests) is
        resident.
        """
        size = chunk_requests or self.chunk_requests
        if size < 1:
            raise ValueError(f"chunk_requests must be >= 1, got {size}")
        chunk: List[IORequest] = []
        append = chunk.append
        for request in self:
            append(request)
            if len(chunk) >= size:
                yield chunk
                chunk = []
                append = chunk.append
        if chunk:
            yield chunk

    def materialize(self, limit: Optional[int] = None) -> Trace:
        """Read (a prefix of) the stream into an in-memory ``Trace``.

        ``limit`` truncates to the first N requests — the hook the
        serial-vs-streamed bit-identity checks use to compare a
        tractable prefix of a huge trace.
        """
        if limit is not None and limit <= 0:
            raise ValueError(f"limit must be positive, got {limit}")
        requests: List[IORequest] = []
        for request in self:
            requests.append(request)
            if limit is not None and len(requests) >= limit:
                break
        return Trace(requests, name=self.name)

    def count(self) -> int:
        """Number of requests in the file (one full streaming pass)."""
        total = 0
        for _ in iter_trace_requests(self.path, self.trace_format):
            total += 1
        return total

    def summary(self) -> Dict:
        """The same summary an in-memory ``Trace`` reports, computed
        in one streaming pass (plus format/monotonicity metadata)."""
        summary = stat_trace(self.path, self.trace_format)
        summary["name"] = self.name
        return summary


def _stem(path: str) -> str:
    base = os.path.basename(path)
    if base.endswith(".gz"):
        base = base[: -len(".gz")]
    return os.path.splitext(base)[0]
