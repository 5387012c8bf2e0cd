"""The one ambient observability session.

A :class:`Session` bundles the three zero-cost-when-off facilities —
the span :class:`~repro.obs.tracer.Tracer`, the live
:class:`~repro.obs.metrics.MetricsRegistry` and the serve stack's
failpoints (:mod:`repro.chaos.failpoints`).  Each field defaults to
its null singleton, whose ``enabled`` flag is ``False``, so the
default session records nothing and perturbs no figure.

Exactly one session is ambient at a time.  Simulation components
(the engine, drives, arrays, the fault injector) read it once at
construction; the serve stack reads it per operation.  The
:func:`session` context manager installs a copy of the current
session with the given fields replaced, so nested blocks inherit
what they do not override::

    with session(tracer=Tracer()) as s:
        run_limit_study(requests=500)
    write_chrome_trace(s.tracer, "trace.json")

Worker processes forked by ``serve()`` or the parallel executor
inherit the ambient session (POSIX ``fork`` start method).
"""

from __future__ import annotations

import dataclasses
from contextlib import contextmanager
from typing import Any, Iterator

from repro.chaos.failpoints import NULL_FAILPOINTS
from repro.obs.metrics import NULL_METRICS
from repro.obs.tracer import NULL_TRACER

__all__ = ["Session", "current_session", "session"]


@dataclasses.dataclass(frozen=True)
class Session:
    """The tracer, metrics registry and failpoints in effect."""

    tracer: Any = NULL_TRACER
    metrics: Any = NULL_METRICS
    failpoints: Any = NULL_FAILPOINTS


_ambient = Session()


def current_session() -> Session:
    """The ambient session (all null facilities unless installed)."""
    return _ambient


@contextmanager
def session(
    tracer: Any = None, metrics: Any = None, failpoints: Any = None
) -> Iterator[Session]:
    """Install a copy of the ambient session with every non-``None``
    field replaced; the previous session is restored on exit, also
    when the block raises."""
    global _ambient
    previous = _ambient
    fields = dict(tracer=tracer, metrics=metrics, failpoints=failpoints)
    _ambient = dataclasses.replace(
        previous,
        **{name: value for name, value in fields.items() if value is not None},
    )
    try:
        yield _ambient
    finally:
        _ambient = previous
