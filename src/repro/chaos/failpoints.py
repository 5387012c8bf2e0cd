"""Zero-cost-when-disabled failpoints for the serve stack.

A *failpoint* is a named site threaded through the serve code paths
(queue writes, lease creation, claim/ack renames, cache writes, the
lease clock) where a chaos run may inject a failure.  The facility
mirrors the tracer's and metrics layer's zero-cost contract exactly:
the ambient default is the :data:`NULL_FAILPOINTS` singleton whose
:attr:`~NullFailpoints.enabled` flag is ``False``, every site guards
with ``if fp.enabled:`` before constructing arguments, and the
``ExplodingFailpoints`` test in ``tests/chaos/test_failpoints.py``
proves no failpoint method is evaluated on the clean path.

Two site operations:

* :meth:`~NullFailpoints.hit` — an execution point was reached.  An
  active :class:`~repro.chaos.injector.ChaosInjector` may respond by
  raising ``ENOSPC``, tearing the just-written file, hanging, or
  killing the worker.  Sites that write a file pass its ``path`` so
  torn-write faults know what to truncate.
* :meth:`~NullFailpoints.clock_skew` — the queue is about to read the
  wall clock for lease arithmetic; the returned offset (seconds) is
  added, modelling clock skew between workers.

:meth:`~NullFailpoints.bind_worker` tells the facility which serve
worker this process is (set by ``worker_loop``); process-killing and
hanging faults only apply once bound, so a *client* process sharing
the injector (the campaign driver submitting jobs) can never be
crashed by worker-targeted chaos.

Sites find the facility in the ambient session
(:mod:`repro.obs.session`), next to the tracer and metrics registry.
Worker processes forked by ``serve()`` inherit the ambient injector
(POSIX ``fork`` start method).
"""

from __future__ import annotations

from typing import Optional

__all__ = [
    "FAILPOINT_SITES",
    "NULL_FAILPOINTS",
    "NullFailpoints",
]

#: Every named failpoint site threaded through the serve stack, in
#: path order.  Chaos plans are validated against this list so a typo
#: in a site name fails loudly instead of silently never firing.
FAILPOINT_SITES = (
    # queue record writes (_write_json_atomic): enqueue, ack outcome,
    # requeue attempt bumps, quarantine diagnostics.
    "queue.record.before_replace",
    "queue.record.after_replace",
    # the exclusive lease link that arbitrates a claim.
    "queue.lease.after_create",
    # the pending -> claimed rename that wins a claim.
    "queue.claim.after_rename",
    # the claimed -> done/failed rename that finishes a job.
    "queue.ack.before_rename",
    "queue.ack.after_rename",
    # the wall-clock read used for lease create/expiry arithmetic.
    "queue.clock",
    # result-cache payload writes.
    "cache.put.before_replace",
    "cache.put.after_replace",
    # worker job processing: after claim, before simulating; and
    # after the result is in the cache, before the ack rename.
    "service.job.before_run",
    "service.job.before_ack",
)


class NullFailpoints:
    """The zero-cost disabled facility.

    Every method is a no-op (``clock_skew`` returns 0.0) and
    :attr:`enabled` is ``False`` so instrumented sites skip argument
    construction entirely.  Use the :data:`NULL_FAILPOINTS` singleton
    rather than instantiating.
    """

    enabled = False
    __slots__ = ()

    def hit(self, site: str, path: Optional[str] = None) -> None:
        pass

    def clock_skew(self, site: str) -> float:
        return 0.0

    def bind_worker(self, worker: str) -> None:
        pass


NULL_FAILPOINTS = NullFailpoints()
