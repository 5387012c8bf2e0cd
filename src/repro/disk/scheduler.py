"""Queue-scheduling policies for pending disk requests.

A scheduler picks the next request to service from the pending set.
Schedulers are stateless with respect to the drive; everything they
need (head position, positioning-time estimates) arrives through a
:class:`SchedulingContext` supplied by the drive at each decision.

The paper uses Shortest-Positioning-Time-First (SPTF, Worthington et
al. [42]) everywhere, because its multi-actuator scheduler generalises
SPTF across (request × arm) pairs.  FCFS, SSTF and C-LOOK are provided
as classical baselines and for the scheduler-sweep ablation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from repro.disk.request import IORequest

__all__ = [
    "CLookScheduler",
    "FCFSScheduler",
    "ForegroundFirstScheduler",
    "QueueScheduler",
    "SPTFScheduler",
    "SSTFScheduler",
    "SchedulingContext",
    "VScanScheduler",
    "make_scheduler",
]


class SchedulingContext:
    """Drive state handed to a scheduler at decision time.

    Parameters
    ----------
    current_cylinder:
        Cylinder the (chosen) head currently sits on.
    cylinder_of:
        Maps a request to its target cylinder.
    positioning_time:
        Maps a request to estimated seek + rotational latency were it
        dispatched now (over the best arm, for parallel drives).
    positioning_times:
        Batch form of ``positioning_time``: maps a scheduling window
        to one estimate per request, in order.  SPTF calls it once per
        decision, so a drive can hoist its per-decision state (idle
        arms, spindle phase, scales) out of the per-candidate loop.
        Estimates must be bit-identical to ``positioning_time``.  When
        only ``positioning_time`` is given, the batch is derived from
        it one request at a time.
    """

    def __init__(
        self,
        current_cylinder: int,
        cylinder_of: Callable[[IORequest], int],
        positioning_time: Optional[Callable[[IORequest], float]] = None,
        positioning_times: Optional[
            Callable[[Sequence[IORequest]], List[float]]
        ] = None,
    ):
        self.current_cylinder = current_cylinder
        self.cylinder_of = cylinder_of
        self.positioning_time = positioning_time
        if positioning_times is None and positioning_time is not None:
            positioning_times = self._per_request_times
        self.positioning_times = positioning_times

    def _per_request_times(
        self, candidates: Sequence[IORequest]
    ) -> List[float]:
        """The derived batch: one ``positioning_time`` call each."""
        positioning_time = self.positioning_time
        return [positioning_time(request) for request in candidates]


#: Default scheduling-window depth: position-aware policies evaluate at
#: most this many of the oldest pending requests.  SATA-era drives
#: expose a shallow effective command queue (the Barracuda ES
#: generation typically reordered over only a handful of tagged
#: commands), and the paper's HC-SD rotational-latency PDFs — spread
#: broadly up to a full revolution — are consistent with little
#: rotational reordering at the disk.  The window also bounds
#: simulation cost under overload.
DEFAULT_WINDOW = 8


class QueueScheduler:
    """Interface for queue scheduling policies.

    ``window`` bounds how many of the oldest pending requests a
    position-aware policy considers per decision; ``None`` means
    unbounded.
    """

    #: Human-readable policy name (used in reports and configs).
    name = "base"

    def __init__(self, window: Optional[int] = DEFAULT_WINDOW):
        if window is not None and window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        """Choose one of ``pending`` (must be non-empty)."""
        raise NotImplementedError

    def _require_pending(self, pending: Sequence[IORequest]) -> None:
        if not pending:
            raise ValueError("scheduler invoked with an empty queue")

    def _candidates(
        self, pending: Sequence[IORequest]
    ) -> Sequence[IORequest]:
        """The scheduling window: the oldest ``window`` requests.

        Pending queues are maintained in arrival order by the drives,
        so a plain prefix slice gives the oldest requests.
        """
        if self.window is None or len(pending) <= self.window:
            return pending
        return pending[: self.window]


class FCFSScheduler(QueueScheduler):
    """First-come-first-served: strict arrival order."""

    name = "fcfs"

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        # Inlined _require_pending/_candidates: this select runs once
        # per dispatched request, and both helpers reduce to one test
        # each.
        if not pending:
            raise ValueError("scheduler invoked with an empty queue")
        window = self.window
        if window is None or len(pending) <= window:
            candidates = pending
        else:
            candidates = pending[:window]
        # Manual first-minimal scan over (arrival_time, request_id):
        # drives keep ``pending`` in arrival order, so this is usually
        # one pass of never-taken branches — min() with a tuple key
        # built one lambda frame and one tuple per candidate.
        best = candidates[0]
        best_arrival = best.arrival_time
        best_id = best.request_id
        for request in candidates:
            arrival = request.arrival_time
            if arrival < best_arrival or (
                arrival == best_arrival and request.request_id < best_id
            ):
                best = request
                best_arrival = arrival
                best_id = request.request_id
        return best


class SSTFScheduler(QueueScheduler):
    """Shortest-seek-time-first: nearest cylinder wins."""

    name = "sstf"

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        self._require_pending(pending)
        return min(
            self._candidates(pending),
            key=lambda r: (
                abs(context.cylinder_of(r) - context.current_cylinder),
                r.arrival_time,
                r.request_id,
            ),
        )


class SPTFScheduler(QueueScheduler):
    """Shortest-positioning-time-first (seek + rotational latency).

    Requires the context to supply a positioning-time estimator, which
    it calls once per decision for the whole window; this is the
    policy the paper uses for both conventional and multi-actuator
    drives.
    """

    name = "sptf"

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        self._require_pending(pending)
        positioning_times = context.positioning_times
        if positioning_times is None:
            raise ValueError(
                "SPTF requires a positioning_time or positioning_times "
                "estimator in the context"
            )
        if len(pending) == 1:
            # Singleton queue: the choice is forced, skip the estimate.
            return pending[0]
        # One batch call prices the whole window; then a manual min()
        # over (estimate, arrival_time, request_id): the equal-estimate
        # tie-break only builds tuples when it actually ties, instead
        # of once per candidate.
        candidates = self._candidates(pending)
        pairs = zip(candidates, positioning_times(candidates))
        best, best_time = next(pairs)
        for request, estimate in pairs:
            if estimate < best_time:
                best = request
                best_time = estimate
            elif estimate == best_time and (
                (request.arrival_time, request.request_id)
                < (best.arrival_time, best.request_id)
            ):
                best = request
        return best


class CLookScheduler(QueueScheduler):
    """Circular LOOK: sweep toward higher cylinders, wrap to lowest."""

    name = "clook"

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        self._require_pending(pending)
        windowed = self._candidates(pending)
        ahead = [
            r
            for r in windowed
            if context.cylinder_of(r) >= context.current_cylinder
        ]
        candidates = ahead if ahead else list(windowed)
        return min(
            candidates,
            key=lambda r: (
                context.cylinder_of(r),
                r.arrival_time,
                r.request_id,
            ),
        )


class VScanScheduler(QueueScheduler):
    """V(R) scan: SSTF biased by a directional penalty.

    ``r`` in ``[0, 1]`` interpolates between SSTF (r=0) and SCAN (r=1):
    requests behind the current sweep direction are penalised by
    ``r × full_stroke``.
    """

    name = "vscan"

    def __init__(
        self,
        r: float = 0.2,
        cylinders: int = 100000,
        window: Optional[int] = DEFAULT_WINDOW,
    ):
        super().__init__(window=window)
        if not 0.0 <= r <= 1.0:
            raise ValueError(f"r must be in [0, 1], got {r}")
        self.r = r
        self.cylinders = cylinders
        self._direction = 1

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        self._require_pending(pending)
        penalty = self.r * self.cylinders

        def cost(request: IORequest) -> float:
            delta = context.cylinder_of(request) - context.current_cylinder
            base = abs(delta)
            if delta * self._direction < 0:
                base += penalty
            return base

        choice = min(
            self._candidates(pending),
            key=lambda r: (cost(r), r.arrival_time, r.request_id),
        )
        delta = context.cylinder_of(choice) - context.current_cylinder
        if delta != 0:
            self._direction = 1 if delta > 0 else -1
        return choice


class ForegroundFirstScheduler(QueueScheduler):
    """Two-class wrapper: foreground requests always dispatch before
    queued background requests (no in-service pre-emption).

    Used when comparing intra-disk parallelism against freeblock
    scheduling (paper §5): background work runs whenever no foreground
    request is waiting, e.g. on a spare arm assembly of an overlapped
    multi-actuator drive.
    """

    name = "foreground-first"

    def __init__(self, inner: Optional[QueueScheduler] = None):
        inner = inner or FCFSScheduler()
        super().__init__(window=inner.window)
        self.inner = inner

    def select(
        self, pending: Sequence[IORequest], context: SchedulingContext
    ) -> IORequest:
        self._require_pending(pending)
        foreground = [r for r in pending if not r.background]
        if foreground:
            return self.inner.select(foreground, context)
        return self.inner.select(pending, context)


_POLICIES = {
    cls.name: cls
    for cls in (
        FCFSScheduler,
        SSTFScheduler,
        SPTFScheduler,
        CLookScheduler,
        VScanScheduler,
        ForegroundFirstScheduler,
    )
}


def make_scheduler(name: str, **kwargs) -> QueueScheduler:
    """Instantiate a scheduler by policy name (``fcfs``, ``sstf``,
    ``sptf``, ``clook``, ``vscan``)."""
    try:
        cls = _POLICIES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return cls(**kwargs)
