"""Host-time tracing of the simulator's layers, from outside the program.

:class:`LayerTracer` replaces the public entry points listed in
:data:`ENTRY_POINTS` with wrappers for the duration of a ``with``
block and puts the originals back on exit.  Each wrapped call records
one span (name, start, end, parent span, request id) and adds to its
entry point's call count and *self time*: the span's duration minus
the time covered by wrapped calls made inside it.  The first
:data:`SPAN_LIMIT` spans are kept in memory in flat arrays and written
out once, by :meth:`write_spans`; counts and self time cover every
call.

The wrappers only observe: they call the original with the same
arguments and return its result, so a traced replay must reproduce the
untraced figures exactly.  Wrappers must be installed before systems
are built, because drives bind some entry points at construction.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from array import array
from typing import Dict, List, Tuple

from repro.disk.cache import DiskCache
from repro.disk.drive import ConventionalDrive
from repro.disk.geometry import DiskGeometry
from repro.core.parallel_disk import ParallelDisk
from repro.disk import scheduler as scheduler_module
from repro.experiments import configs, runner
from repro.metrics.collector import RequestCollector
from repro.raid.array import DiskArray
from repro.workloads.closedloop import ClosedLoopClients
from repro.workloads.commercial import CommercialWorkload
from repro.workloads.synthetic import SyntheticWorkload


def _schedulers() -> List[Tuple[object, str]]:
    """Every scheduler class in the module that defines ``select``."""
    found = []
    for value in vars(scheduler_module).values():
        if (
            isinstance(value, type)
            and issubclass(value, scheduler_module.QueueScheduler)
            and "select" in vars(value)
        ):
            found.append((value, "select"))
    return found


#: Span name -> the (owner, attribute) pairs it wraps.  The owner is a
#: class (method wrapped for every instance) or a module (function
#: wrapped for callers that look it up through the module).
ENTRY_POINTS: Dict[str, List[Tuple[object, str]]] = {
    "replay.run_trace": [(runner, "run_trace")],
    "replay.closed_loop": [(ClosedLoopClients, "run")],
    "workloads.generate": [
        (CommercialWorkload, "generate"),
        (SyntheticWorkload, "generate"),
    ],
    "configs.build": [
        (configs, "build_md_system"),
        (configs, "build_hcsd_system"),
        (configs, "build_hcsd_drive"),
        (configs, "build_raid0_system"),
    ],
    "array.submit": [(DiskArray, "submit")],
    "drive.submit": [(ConventionalDrive, "submit")],
    "drive.service_plan": [(DiskGeometry, "service_plan")],
    "drive.positioning": [
        (ConventionalDrive, "positioning_estimate"),
        (ParallelDisk, "positioning_estimate"),
    ],
    "scheduler.select": _schedulers(),
    "cache.lookup_read": [(DiskCache, "lookup_read")],
    "cache.contains": [(DiskCache, "contains")],
    "cache.install_read": [(DiskCache, "install_read")],
    "cache.install_write": [(DiskCache, "install_write")],
    "cache.invalidate": [(DiskCache, "invalidate")],
    "collector.record": [(RequestCollector, "record")],
}

#: Spans kept for writing out (about 4 MB gzipped); a traced
#: ``limit_study`` run of 30 s makes about two million.
SPAN_LIMIT = 300_000

#: Spans whose second positional argument is the request they serve.
#: A span inherits its parent's request id when the parent has one,
#: so the drive slices of an array request share the logical id;
#: spans with no request in scope carry -1.
REQUEST_SPANS = frozenset(
    {"array.submit", "drive.submit", "drive.positioning", "collector.record"}
)


class LayerTracer:
    """Per-entry-point call counts, self time and spans."""

    def __init__(self) -> None:
        self.names = list(ENTRY_POINTS)
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        #: Sum of queue lengths seen by ``scheduler.select``.
        self.pending_total = 0
        self.span_name = array("B")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("q")
        self.span_request = array("q")
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        select_index = self.names.index("scheduler.select")
        for index, name in enumerate(self.names):
            for owner, attribute in ENTRY_POINTS[name]:
                original = vars(owner)[attribute]
                self._saved.append((owner, attribute, original))
                setattr(
                    owner,
                    attribute,
                    self._wrap(
                        index,
                        original,
                        name in REQUEST_SPANS,
                        index == select_index,
                    ),
                )
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._saved):
            setattr(owner, attribute, original)
        self._saved.clear()

    def _wrap(self, index: int, fn, carries_request: bool, is_select: bool):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        names = self.span_name
        starts = self.span_start
        ends = self.span_end
        parents = self.span_parent
        requests = self.span_request
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack:
                parent_span, _, request_id = stack[-1]
            else:
                parent_span = request_id = -1
            if carries_request and request_id == -1:
                request_id = args[1].request_id
            if is_select:
                tracer.pending_total += len(args[1])
            span = len(names)
            if span < SPAN_LIMIT:
                names.append(index)
                starts.append(0)
                ends.append(0)
                parents.append(parent_span)
                requests.append(request_id)
            else:
                span = -1
            frame = [span, 0, request_id]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self_ns[index] += duration - frame[1]
                calls[index] += 1
                if stack:
                    stack[-1][1] += duration
                if span >= 0:
                    starts[span] = start
                    ends[span] = end

        return traced

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """Span name -> (calls, self time in ns)."""
        return {
            name: (self.calls[index], self.self_ns[index])
            for index, name in enumerate(self.names)
        }

    def write_spans(self, path) -> int:
        """Write the kept spans as gzipped column-wise JSON; returns count.

        Columns are written in slices, so the file never exists as one
        string in memory.
        """
        columns = {
            "name": self.span_name,
            "start_ns": self.span_start,
            "end_ns": self.span_end,
            "parent": self.span_parent,
            "request": self.span_request,
        }
        with gzip.open(path, "wt", encoding="ascii", compresslevel=1) as out:
            out.write(json.dumps(
                {"names": self.names, "clock": "time.perf_counter_ns"}
            )[:-1])
            for key, column in columns.items():
                out.write(f', "{key}": [')
                for start in range(0, len(column), 65536):
                    if start:
                        out.write(",")
                    out.write(",".join(map(str, column[start:start + 65536])))
                out.write("]")
            out.write("}\n")
        return len(self.span_name)


def self_time_us(
    totals: Dict[str, Tuple[int, int]], prefix: str
) -> float:
    """Summed self time (us) of every span name starting with ``prefix``."""
    return sum(ns for name, (_, ns) in totals.items()
               if name.startswith(prefix)) / 1000.0


def call_count(totals: Dict[str, Tuple[int, int]], prefix: str) -> int:
    return sum(calls for name, (calls, _) in totals.items()
               if name.startswith(prefix))
