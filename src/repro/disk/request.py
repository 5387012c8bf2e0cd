"""The I/O request object exchanged between workloads and storage models.

A single :class:`IORequest` flows from a workload generator (or trace
reader), optionally through a RAID controller that splits it, down to a
drive, which stamps it with per-phase service measurements on the way
back.  All times are in milliseconds; addresses are 512-byte sectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

__all__ = [
    "IORequest",
    "SECTOR_BYTES",
    "new_request",
    "release_request",
    "remove_request",
]

#: Size of one logical sector, in bytes.
SECTOR_BYTES = 512

_request_ids = itertools.count()

#: Slab pool: dead request shells available for reuse.  The fast
#: constructors (:func:`new_request`, :meth:`IORequest.clone_slice`)
#: draw shells from here instead of allocating, and the RAID
#: controller returns each physical slice via :func:`release_request`
#: once its measurements are copied out.  Every field — including a
#: fresh ``request_id`` from the shared counter — is overwritten on
#: reuse, so pooling is invisible to everything but the allocator.
_slab: List["IORequest"] = []

#: Workload-identity fields :meth:`IORequest.clone` may override on its
#: allocation-free fast path.
_CLONE_KEYS = frozenset(
    ("lba", "size", "is_read", "arrival_time", "source_disk", "background")
)


@dataclass(slots=True)
class IORequest:
    """One logical I/O: ``size`` sectors at ``lba``, read or write.

    Measurement fields are filled in by whichever drive services the
    request; they remain at their defaults for cache hits (other than
    ``completion_time``).
    """

    lba: int
    size: int
    is_read: bool
    arrival_time: float = 0.0
    #: Index of the source disk in the original multi-disk trace; used by
    #: the MD→HC-SD concatenated layout and by RAID address translation.
    source_disk: int = 0
    #: Background (best-effort) work, e.g. scrubbing or defragmentation.
    #: Freeblock scheduling services these inside foreground rotational
    #: latency windows; intra-disk parallel drives can dedicate an arm.
    background: bool = False
    request_id: int = field(default_factory=lambda: next(_request_ids))

    # -- measurements (stamped by the servicing drive) --------------------
    start_service: Optional[float] = None
    completion_time: Optional[float] = None
    seek_time: float = 0.0
    rotational_latency: float = 0.0
    transfer_time: float = 0.0
    cache_hit: bool = False
    #: Which arm assembly serviced the request (always 0 on a
    #: conventional drive).
    arm_id: int = 0
    #: True when a media error survived the drive's retry budget — the
    #: access completed (timing-wise) but the data is unrecovered and
    #: the layer above must retry, reconstruct, or report loss.
    media_error: bool = False
    #: Retry revolutions spent on this request (drive level) plus, for
    #: logical array requests, slice resubmissions.
    retries: int = 0

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError(f"lba must be non-negative, got {self.lba}")
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")

    @property
    def end_lba(self) -> int:
        """One past the last sector touched."""
        return self.lba + self.size

    @property
    def response_time(self) -> float:
        """Arrival-to-completion latency; raises if not yet complete."""
        if self.completion_time is None:
            raise ValueError(f"request {self.request_id} not complete")
        return self.completion_time - self.arrival_time

    @property
    def service_time(self) -> float:
        """Time spent in actual service (excludes queueing delay)."""
        if self.completion_time is None or self.start_service is None:
            raise ValueError(f"request {self.request_id} not complete")
        return self.completion_time - self.start_service

    @property
    def queue_delay(self) -> float:
        """Time spent waiting before service began."""
        if self.start_service is None:
            raise ValueError(f"request {self.request_id} not started")
        return self.start_service - self.arrival_time

    def clone(self, **overrides) -> "IORequest":
        """A fresh request (new id, cleared measurements) with overrides.

        Used by the RAID layer to fan a logical request out into
        per-disk physical requests.
        """
        if overrides and not _CLONE_KEYS.issuperset(overrides):
            # Overrides beyond the workload fields: take the generic
            # constructor path so unknown keys fail loudly and
            # measurement-field overrides behave as before.
            fields = {
                "lba": self.lba,
                "size": self.size,
                "is_read": self.is_read,
                "arrival_time": self.arrival_time,
                "source_disk": self.source_disk,
                "background": self.background,
            }
            fields.update(overrides)
            return IORequest(**fields)
        # Hot path (one clone per physical slice): build the instance
        # directly, skipping the dataclass __init__/__post_init__ pair,
        # with the same validation on the two checked fields.
        if not overrides:
            return self.clone_slice(
                self.lba,
                self.size,
                self.is_read,
                self.arrival_time,
                self.source_disk,
            )
        new = object.__new__(IORequest)
        get = overrides.get
        new.lba = lba = get("lba", self.lba)
        new.size = size = get("size", self.size)
        if lba < 0:
            raise ValueError(f"lba must be non-negative, got {lba}")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        new.is_read = get("is_read", self.is_read)
        new.arrival_time = get("arrival_time", self.arrival_time)
        new.source_disk = get("source_disk", self.source_disk)
        new.background = get("background", self.background)
        new.request_id = next(_request_ids)
        new.start_service = None
        new.completion_time = None
        new.seek_time = 0.0
        new.rotational_latency = 0.0
        new.transfer_time = 0.0
        new.cache_hit = False
        new.arm_id = 0
        new.media_error = False
        new.retries = 0
        return new

    def clone_slice(
        self,
        lba: int,
        size: int,
        is_read: bool,
        arrival_time: float,
        source_disk: int,
    ) -> "IORequest":
        """Positional fast path of :meth:`clone` for per-disk slices.

        Equivalent to ``clone(lba=..., size=..., is_read=...,
        arrival_time=..., source_disk=...)`` without the keyword
        plumbing; the array controller issues one of these per physical
        slice.
        """
        if lba < 0:
            raise ValueError(f"lba must be non-negative, got {lba}")
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        new = _slab.pop() if _slab else object.__new__(IORequest)
        new.lba = lba
        new.size = size
        new.is_read = is_read
        new.arrival_time = arrival_time
        new.source_disk = source_disk
        new.background = self.background
        new.request_id = next(_request_ids)
        new.start_service = None
        new.completion_time = None
        new.seek_time = 0.0
        new.rotational_latency = 0.0
        new.transfer_time = 0.0
        new.cache_hit = False
        new.arm_id = 0
        new.media_error = False
        new.retries = 0
        return new

    def __str__(self) -> str:
        kind = "R" if self.is_read else "W"
        return (
            f"IORequest#{self.request_id}({kind} lba={self.lba} "
            f"size={self.size} t={self.arrival_time:.3f})"
        )


def new_request(
    lba: int,
    size: int,
    is_read: bool,
    arrival_time: float = 0.0,
    source_disk: int = 0,
) -> IORequest:
    """Slab-backed fast constructor for workload generators.

    Equivalent to ``IORequest(lba=..., size=..., is_read=...,
    arrival_time=..., source_disk=...)`` — same validation, same id
    sequence — without the dataclass ``__init__``/``__post_init__``
    frames, and reusing a pooled shell when one is free.  Generators
    build whole traces through this, which is where the batched
    front end gets its allocation savings.
    """
    if lba < 0:
        raise ValueError(f"lba must be non-negative, got {lba}")
    if size <= 0:
        raise ValueError(f"size must be positive, got {size}")
    new = _slab.pop() if _slab else object.__new__(IORequest)
    new.lba = lba
    new.size = size
    new.is_read = is_read
    new.arrival_time = arrival_time
    new.source_disk = source_disk
    new.background = False
    new.request_id = next(_request_ids)
    new.start_service = None
    new.completion_time = None
    new.seek_time = 0.0
    new.rotational_latency = 0.0
    new.transfer_time = 0.0
    new.cache_hit = False
    new.arm_id = 0
    new.media_error = False
    new.retries = 0
    return new


def release_request(request: IORequest) -> None:
    """Return a dead request shell to the slab pool.

    The caller asserts nothing will touch ``request`` again: the RAID
    controller releases each physical slice after copying its
    measurements to the logical request, and drive tests may release
    requests they own.  Releasing a request something still references
    is undefined — the shell's every field changes on reuse.
    """
    _slab.append(request)


def remove_request(queue: List[IORequest], request: IORequest) -> None:
    """Remove ``request`` itself from ``queue``.

    Drives dequeue the exact object their scheduler chose.
    ``list.remove`` would compare by value instead, running the
    dataclass ``__eq__`` (two field tuples) against every request
    queued ahead of the choice.  Raises ``ValueError`` when
    ``request`` is not queued.
    """
    if queue and queue[0] is request:
        # The head is the common case (FCFS picks it), and skipping
        # the enumerate loop keeps that dequeue as cheap as the C
        # ``list.remove`` it replaces.
        del queue[0]
        return
    for index, queued in enumerate(queue):
        if queued is request:
            del queue[index]
            return
    raise ValueError(f"{request} is not queued")
