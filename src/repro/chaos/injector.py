"""The chaos injector: replays a :class:`ChaosPlan` at failpoints.

A :class:`ChaosInjector` implements the failpoint facility protocol
(:mod:`repro.chaos.failpoints`) with ``enabled = True``.  Install it
ambiently (``session(failpoints=injector)``) before forking serve
workers; each forked worker inherits its own copy-on-write instance,
so site hit counts are per process while the *applied-once latches*
are shared through the filesystem.

Matching: a plan event fires when its ``site`` is hit for the
``occurrence``-th time in this process, its ``worker`` restriction (if
any) matches the bound worker name, and its latch is won.  Latches
live under ``<state_dir>/applied/`` as exclusively-created JSON files
keyed by the event's position in the plan — so a kill event fires in
exactly one worker even though every forked worker counts its own
hits, and a restarted replacement worker (fresh hit counts) can never
re-fire an already-applied event.  Without a ``state_dir`` the latch
is in-process.

Safety: ``worker_kill`` and ``hang`` only apply in processes that
called :meth:`bind_worker` (serve workers do; clients never), so the
campaign driver submitting jobs through the same ambient injector
cannot be crashed or stalled by worker-targeted chaos.
"""

from __future__ import annotations

import errno
import json
import os
import time
from typing import Dict, List, Optional

from repro.chaos.plan import ChaosPlan

__all__ = ["ChaosInjector", "ChaosKill", "applied_events"]


class ChaosKill(BaseException):
    """Raised (``kill_mode='raise'``) in place of ``os._exit``.

    Derives from ``BaseException`` so the worker's job-level
    ``except Exception`` cannot swallow it — the worker dies exactly
    as it would on a real crash, minus the process teardown.
    """


class ChaosInjector:
    """Replay ``plan`` against the serve stack's failpoints.

    ``kill_mode`` selects how ``worker_kill`` dies: ``'exit'``
    (default) calls ``os._exit(137)`` — no cleanup runs, the lease is
    orphaned, exactly like a SIGKILL — and is only safe in worker
    child processes; ``'raise'`` raises :class:`ChaosKill` for
    in-process tests.  ``sleep_fn`` is injectable for testing hangs.
    """

    enabled = True

    def __init__(
        self,
        plan: ChaosPlan,
        state_dir: Optional[str] = None,
        kill_mode: str = "exit",
        sleep_fn=time.sleep,
    ):
        if kill_mode not in ("exit", "raise"):
            raise ValueError(
                f"kill_mode must be exit/raise, got {kill_mode!r}"
            )
        self.plan = plan
        self.state_dir = str(state_dir) if state_dir else None
        self.kill_mode = kill_mode
        self._sleep = sleep_fn
        self._hits: Dict[str, int] = {}
        self._worker: Optional[str] = None
        self._applied_local: set = set()
        #: Events applied by *this process* (the cross-process record
        #: is the latch directory; see :func:`applied_events`).
        self.applied: List[Dict] = []
        if self.state_dir:
            os.makedirs(
                os.path.join(self.state_dir, "applied"), exist_ok=True
            )

    # -- failpoint protocol ------------------------------------------------
    def bind_worker(self, worker: str) -> None:
        self._worker = worker

    def clock_skew(self, site: str) -> float:
        """Total skew from triggered ``clock_skew`` events at ``site``.

        Unlike one-shot faults, skew is a *condition*: once the site's
        hit count reaches an event's occurrence threshold, the offset
        applies to every subsequent read in this process.  Skew events
        are not latched — a skewed clock is skewed for every read, in
        every process the event's ``worker`` restriction matches.
        """
        count = self._hits.get(site, 0) + 1
        self._hits[site] = count
        skew = 0.0
        for event in self.plan.events:
            if (
                event.kind == "clock_skew"
                and event.site == site
                and count >= event.occurrence
                and self._matches_worker(event)
            ):
                skew += event.skew_s
        return skew

    def hit(self, site: str, path: Optional[str] = None) -> None:
        count = self._hits.get(site, 0) + 1
        self._hits[site] = count
        for index, event in enumerate(self.plan.events):
            if event.kind == "clock_skew":
                continue
            if event.site != site or event.occurrence != count:
                continue
            if not self._matches_worker(event):
                continue
            if event.kind in ("worker_kill", "hang") and self._worker is None:
                continue  # never crash or stall an unbound (client) process
            if event.kind == "torn_write" and path is None:
                continue
            if not self._claim_latch(index, event, path):
                continue
            self._apply(event, path)

    # -- internals ---------------------------------------------------------
    def _matches_worker(self, event) -> bool:
        return event.worker is None or event.worker == self._worker

    def _claim_latch(self, index: int, event, path: Optional[str]) -> bool:
        """Win the applied-once latch for plan event ``index``.

        Filesystem-backed when a ``state_dir`` was given (exclusive
        create arbitrates across processes and worker restarts),
        in-process otherwise.
        """
        record = {
            "event": event.to_dict(),
            "index": index,
            "worker": self._worker,
            "pid": os.getpid(),
            "path": path,
            "applied_at": time.time(),
        }
        if self.state_dir is None:
            if index in self._applied_local:
                return False
            self._applied_local.add(index)
            return True
        latch = os.path.join(
            self.state_dir, "applied", f"event-{index:03d}.json"
        )
        try:
            fd = os.open(latch, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            return False
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return True

    def _apply(self, event, path: Optional[str]) -> None:
        self.applied.append(
            {"event": event.to_dict(), "path": path}
        )
        from repro.obs.session import current_session

        metrics = current_session().metrics
        if metrics.enabled:
            metrics.counter(
                "repro_chaos_injections_total",
                "Chaos-plan events applied by the injector",
                labels=("kind",),
            ).labels(kind=event.kind).inc()
        if event.kind == "enospc":
            raise OSError(
                errno.ENOSPC,
                f"No space left on device (chaos at {event.site})",
            )
        if event.kind == "torn_write":
            with open(path, "r+b") as handle:
                handle.truncate(event.truncate_at)
            return
        if event.kind == "hang":
            self._sleep(event.hang_s)
            return
        if event.kind == "worker_kill":
            if self.kill_mode == "raise":
                raise ChaosKill(
                    f"chaos worker_kill at {event.site}"
                )
            os._exit(137)


def applied_events(state_dir: str) -> List[Dict]:
    """The cross-process applied-event records, in plan order.

    Reads the latch files an injector (in any process) wrote under
    ``<state_dir>/applied/``; the campaign report embeds these.
    """
    applied_dir = os.path.join(str(state_dir), "applied")
    records: List[Dict] = []
    if not os.path.isdir(applied_dir):
        return records
    for name in sorted(os.listdir(applied_dir)):
        if not name.endswith(".json"):
            continue
        try:
            with open(
                os.path.join(applied_dir, name), "r", encoding="ascii"
            ) as handle:
                records.append(json.load(handle))
        except (OSError, ValueError):
            continue  # a latch torn by the kill it recorded
    return records
