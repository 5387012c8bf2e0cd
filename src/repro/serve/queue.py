"""A persistent, crash-safe, multi-process job queue on a directory.

Layout (everything under one queue directory)::

    queue/
      pending/<job_id>.json    # submitted, unclaimed
      claimed/<job_id>.json    # being worked; .lease.json sidecar
      done/<job_id>.json       # finished (record carries the outcome)
      failed/<job_id>.json     # exhausted max_attempts
      corrupt/<job_id>.json    # quarantined torn/tampered records
                               # (+ .reason.json diagnostics sidecar)

State transitions are single ``os.rename`` calls (atomic on POSIX
within one filesystem), so any number of worker processes can claim
concurrently without locks: exactly one rename wins, the losers get
``FileNotFoundError`` and move on.  Records are written to a temp file
and renamed into place — with ``fsync`` on the temp file before and
the parent directory after the replace (``durable=False`` opts out
for tests/benchmarks) — so a reader never observes a partial JSON and
an acknowledged record survives power loss.

Every record carries a ``record_sha256`` self-checksum.  Reads are
*tolerant*: a torn or tampered record (power loss on a non-durable
queue, bit rot, a chaos-injected torn write) is quarantined into
``corrupt/`` with a diagnostics sidecar instead of wedging
:meth:`JobQueue.claim` — the claim loop moves on to the next job, and
the submitter can resubmit under the same id.

Crash safety: a claim writes a lease sidecar (owner pid + wall-clock
expiry).  :meth:`JobQueue.requeue_stale` returns claimed jobs whose
lease has expired — or whose owner process is verifiably dead — to
``pending``, bumping the record's ``attempts``; jobs that exhaust
``max_attempts`` land in ``failed`` instead of looping forever.  A
pid that exists but is *not ours* (``EPERM``) is ambiguous and keeps
its lease until expiry.  ``requeue_stale`` also sweeps orphaned
``.tmp-*`` files and ownerless leases left by crashed writers.

Chaos: the mutation paths are threaded with named failpoints
(:mod:`repro.chaos.failpoints`) — zero-cost no-ops unless a
:class:`~repro.chaos.injector.ChaosInjector` is installed.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.obs.session import current_session

__all__ = ["JobQueue", "QUEUE_STATES", "CORRUPT_STATE", "ALL_STATES"]

QUEUE_STATES = ("pending", "claimed", "done", "failed")

#: The quarantine state for torn/tampered records.  Not a *live* state
#: — nothing transitions out of it automatically — so it is excluded
#: from ``QUEUE_STATES`` (duplicate-id checks, record search) but
#: included in ``counts()``/``jobs()`` for observability.
CORRUPT_STATE = "corrupt"

ALL_STATES = QUEUE_STATES + (CORRUPT_STATE,)

#: Default wall-clock lease on a claimed job before it is presumed
#: crashed.  Long: a multi-million-request replay is minutes of work.
DEFAULT_LEASE_S = 3600.0

DEFAULT_MAX_ATTEMPTS = 3

#: Self-checksum field embedded in every record by
#: :func:`_write_json_atomic` and verified by tolerant reads.
RECORD_CHECKSUM_KEY = "record_sha256"


def _record_checksum(payload: Dict) -> str:
    body = {
        key: value
        for key, value in payload.items()
        if key != RECORD_CHECKSUM_KEY
    }
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("ascii")).hexdigest()


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_json_atomic(
    path: str,
    payload: Dict,
    durable: bool = True,
    exclusive: bool = False,
) -> None:
    """Checksum, write to a temp file, and atomically (re)place.

    ``durable`` fsyncs the temp file before and the parent directory
    after the replace, so the record survives power loss the moment
    the call returns.  ``exclusive`` links instead of replacing —
    ``FileExistsError`` if ``path`` exists — closing check-then-write
    races on creation.
    """
    directory = os.path.dirname(path)
    payload = dict(payload)
    payload[RECORD_CHECKSUM_KEY] = _record_checksum(payload)
    fd, temp_path = tempfile.mkstemp(
        dir=directory, prefix=".tmp-", suffix=".json"
    )
    try:
        with os.fdopen(fd, "w", encoding="ascii") as handle:
            json.dump(payload, handle, sort_keys=True, indent=1)
            handle.write("\n")
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        fp = current_session().failpoints
        if fp.enabled:
            fp.hit("queue.record.before_replace", path=path)
        if exclusive:
            os.link(temp_path, path)
        else:
            os.replace(temp_path, path)
        if durable:
            _fsync_dir(directory)
        if fp.enabled:
            fp.hit("queue.record.after_replace", path=path)
    finally:
        try:
            os.unlink(temp_path)
        except OSError:
            pass


def _pid_alive(pid: int) -> Optional[bool]:
    """True/False when knowable on this host, None when ambiguous."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except OSError as error:
        if error.errno == errno.ESRCH:
            return False
        return None  # EPERM etc.: exists but not ours, or unknowable
    return True


class JobQueue:
    """Client and worker operations on one on-disk queue."""

    def __init__(
        self,
        root: str,
        lease_s: float = DEFAULT_LEASE_S,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        create: bool = True,
        durable: bool = True,
    ):
        if lease_s <= 0:
            raise ValueError(f"lease_s must be positive, got {lease_s}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.root = str(root)
        self.lease_s = lease_s
        self.max_attempts = max_attempts
        self.durable = durable
        #: Jobs moved to ``failed`` by the most recent
        #: :meth:`requeue_stale` call (attempts exhausted).
        self.last_requeue_failed: List[str] = []
        #: ``{"job_id", "reason", "record"}`` dicts for records
        #: quarantined by the most recent :meth:`claim` /
        #: :meth:`requeue_stale` / :meth:`release` call.
        self.last_quarantined: List[Dict] = []
        if create:
            for state in ALL_STATES:
                os.makedirs(os.path.join(self.root, state), exist_ok=True)
        else:
            # Read-only callers (status/result/metrics) must not
            # conjure an empty queue out of a typo'd path.  Only the
            # four live states are required: pre-corrupt-state queues
            # stay readable.
            if not os.path.isdir(self.root):
                raise FileNotFoundError(
                    f"no job queue at {self.root!r} (submit or serve "
                    "a job there first)"
                )
            missing = [
                state
                for state in QUEUE_STATES
                if not os.path.isdir(os.path.join(self.root, state))
            ]
            if missing:
                raise FileNotFoundError(
                    f"{self.root!r} is not a job queue (missing "
                    f"{'/'.join(missing)} subdirectories)"
                )

    # -- paths ------------------------------------------------------------
    def _record_path(self, state: str, job_id: str) -> str:
        return os.path.join(self.root, state, f"{job_id}.json")

    def _lease_path(self, job_id: str) -> str:
        return os.path.join(
            self.root, "claimed", f"{job_id}.lease.json"
        )

    def _now(self) -> float:
        """The lease clock: wall time plus any injected chaos skew."""
        fp = current_session().failpoints
        if fp.enabled:
            return time.time() + fp.clock_skew("queue.clock")
        return time.time()

    # -- submission -------------------------------------------------------
    def enqueue(self, job_id: str, record: Dict) -> str:
        """Write a pending record; returns the record path.

        The pending file is created with exclusive (``O_EXCL``-style
        link) semantics: two submitters racing the same job id cannot
        both succeed, whatever the interleaving — the loser gets the
        same ``ValueError`` the friendly pre-check raises.
        """
        if not job_id or "/" in job_id:
            raise ValueError(f"bad job id {job_id!r}")
        path = self._record_path("pending", job_id)
        if any(
            os.path.exists(self._record_path(state, job_id))
            for state in QUEUE_STATES
        ):
            raise ValueError(f"job {job_id} already exists in the queue")
        record = dict(record)
        record.setdefault("attempts", 0)
        try:
            _write_json_atomic(
                path, record, durable=self.durable, exclusive=True
            )
        except FileExistsError:
            raise ValueError(
                f"job {job_id} already exists in the queue"
            ) from None
        return path

    # -- worker side ------------------------------------------------------
    def claim(self, owner: Optional[str] = None) -> Optional[Dict]:
        """Atomically move the oldest pending job to ``claimed``.

        Returns the job record (with ``job_id`` filled in) or ``None``
        when the queue has no claimable work.  Safe to call from any
        number of processes: the rename is the arbiter.  A record that
        turns out to be torn or tampered is quarantined into
        ``corrupt/`` and the scan continues — corruption never wedges
        the claim loop.
        """
        self.last_quarantined = []
        fp = current_session().failpoints
        pending = os.path.join(self.root, "pending")
        for name in sorted(os.listdir(pending)):
            if not name.endswith(".json") or name.startswith("."):
                continue
            job_id = name[: -len(".json")]
            source = os.path.join(pending, name)
            target = self._record_path("claimed", job_id)
            # The lease is created *before* the claiming rename — a
            # concurrent requeue_stale() must never observe a claimed
            # record without its lease (it would presume a crash and
            # steal the job back) — and created exclusively, so only
            # one claimer ever proceeds to the rename and a loser can
            # never delete a winner's lease.
            if not self._create_lease(job_id, owner):
                continue
            if fp.enabled:
                fp.hit("queue.lease.after_create")
            try:
                os.rename(source, target)
            except FileNotFoundError:
                # The job left pending (acked fast, or requeued) while
                # we held the speculative lease; release it.
                try:
                    os.unlink(self._lease_path(job_id))
                except FileNotFoundError:
                    pass
                continue
            if fp.enabled:
                fp.hit("queue.claim.after_rename")
            record, problem = self._read_record(target)
            if problem is not None:
                self.quarantine("claimed", job_id, problem)
                try:
                    os.unlink(self._lease_path(job_id))
                except FileNotFoundError:
                    pass
                continue
            if record is None:  # vanished under us; release and move on
                try:
                    os.unlink(self._lease_path(job_id))
                except FileNotFoundError:
                    pass
                continue
            record["job_id"] = job_id
            return record
        return None

    def _create_lease(self, job_id: str, owner: Optional[str]) -> bool:
        """Exclusively create the lease file; False when outraced.

        A leftover lease from a claimer that died between lease
        creation and rename would wedge its job forever, so an
        existing lease that is expired — or owned by a verifiably
        dead pid — is removed (and the link retried once) before
        giving up.
        """
        path = self._lease_path(job_id)
        now = self._now()
        payload = {
            "pid": os.getpid(),
            "owner": owner or f"pid-{os.getpid()}",
            "claimed_at": now,
            "expires_at": now + self.lease_s,
        }
        # Fully write the lease to a private temp file, then link it
        # into place: the link is exclusive (fails if a lease exists)
        # AND atomic (no reader ever sees a partially written lease).
        fd, temp_path = tempfile.mkstemp(
            dir=os.path.join(self.root, "claimed"),
            prefix=".tmp-lease-",
        )
        try:
            with os.fdopen(fd, "w", encoding="ascii") as handle:
                json.dump(payload, handle, sort_keys=True)
                handle.write("\n")
            try:
                os.link(temp_path, path)
            except FileExistsError:
                stale = self._read_optional(path)
                removed = False
                if stale is not None:
                    expired = stale.get("expires_at", 0) <= self._now()
                    alive = _pid_alive(int(stale.get("pid", -1)))
                    if expired or alive is False:
                        try:
                            os.unlink(path)
                            removed = True
                        except FileNotFoundError:
                            pass
                if not removed:
                    return False
                try:
                    os.link(temp_path, path)
                except FileExistsError:
                    return False
            return True
        finally:
            try:
                os.unlink(temp_path)
            except OSError:
                pass

    def ack(self, job_id: str, outcome: Dict, state: str = "done") -> None:
        """Finish a claimed job: write the outcome, move the record."""
        if state not in ("done", "failed"):
            raise ValueError(f"ack state must be done/failed, got {state}")
        fp = current_session().failpoints
        claimed = self._record_path("claimed", job_id)
        record, problem = self._read_record(claimed)
        if problem is not None:
            self.quarantine("claimed", job_id, problem)
            try:
                os.unlink(self._lease_path(job_id))
            except FileNotFoundError:
                pass
            raise ValueError(
                f"job {job_id} claimed record was corrupt "
                f"({problem}); quarantined"
            )
        if record is None:
            raise ValueError(f"job {job_id} is not claimed")
        record["outcome"] = outcome
        _write_json_atomic(claimed, record, durable=self.durable)
        if fp.enabled:
            fp.hit("queue.ack.before_rename")
        os.rename(claimed, self._record_path(state, job_id))
        if fp.enabled:
            fp.hit("queue.ack.after_rename")
        try:
            os.unlink(self._lease_path(job_id))
        except FileNotFoundError:
            pass

    def release(self, job_id: str) -> bool:
        """Return an own claimed job to ``pending``, attempts intact.

        The graceful-shutdown path: a SIGTERM'd worker puts its
        in-flight job back without the attempt bump a crash-requeue
        charges.  Returns True when a record was moved.
        """
        claimed = self._record_path("claimed", job_id)
        moved = False
        record, problem = self._read_record(claimed)
        if problem is not None:
            self.quarantine("claimed", job_id, problem)
        elif record is not None:
            try:
                os.rename(claimed, self._record_path("pending", job_id))
                moved = True
            except FileNotFoundError:
                pass
        try:
            os.unlink(self._lease_path(job_id))
        except FileNotFoundError:
            pass
        return moved

    def requeue_stale(self) -> List[str]:
        """Return crashed claims to ``pending``; returns requeued ids.

        A claim is stale when its lease is missing, expired, or owned
        by a verifiably dead pid (a pid that exists but is not ours —
        ``EPERM`` — is ambiguous and keeps the lease until expiry).
        Requeueing bumps ``attempts``; a job at ``max_attempts`` moves
        to ``failed`` with a ``requeue-exhausted`` outcome instead.

        Housekeeping on the way through: corrupt claimed records are
        quarantined, orphaned ``.tmp-*`` files older than the lease
        are swept, and ownerless leases (no record, dead/expired
        owner) are removed.
        """
        requeued = []
        self.last_requeue_failed = []
        self.last_quarantined = []
        claimed_dir = os.path.join(self.root, "claimed")
        now = self._now()
        for name in sorted(os.listdir(claimed_dir)):
            if not name.endswith(".json") or ".lease." in name:
                continue
            if name.startswith("."):
                continue
            job_id = name[: -len(".json")]
            lease = self._read_optional(self._lease_path(job_id))
            if lease is not None:
                expired = lease.get("expires_at", 0) <= now
                alive = _pid_alive(int(lease.get("pid", -1)))
                if not expired and alive is not False:
                    continue  # healthily claimed (or ambiguously owned)
            record, problem = self._read_record(
                self._record_path("claimed", job_id)
            )
            if problem is not None:
                self.quarantine("claimed", job_id, problem)
                try:
                    os.unlink(self._lease_path(job_id))
                except FileNotFoundError:
                    pass
                continue
            if record is None:
                continue  # acked between listdir and read
            attempts = int(record.get("attempts", 0)) + 1
            record["attempts"] = attempts
            claimed = self._record_path("claimed", job_id)
            if attempts >= self.max_attempts:
                record["outcome"] = {
                    "status": "failed",
                    "error": "requeue-exhausted",
                    "attempts": attempts,
                }
                _write_json_atomic(claimed, record, durable=self.durable)
                os.rename(
                    claimed, self._record_path("failed", job_id)
                )
                self.last_requeue_failed.append(job_id)
            else:
                _write_json_atomic(claimed, record, durable=self.durable)
                os.rename(
                    claimed, self._record_path("pending", job_id)
                )
                requeued.append(job_id)
            try:
                os.unlink(self._lease_path(job_id))
            except FileNotFoundError:
                pass
        self._sweep_leftovers(now)
        return requeued

    def _sweep_leftovers(self, now: float) -> None:
        """Remove crashed writers' debris: old temps, ownerless leases.

        A ``.tmp-*`` file older than the lease has no live writer
        (writes are sub-second); a lease whose record is gone and
        whose owner is dead or expired belongs to a worker that
        crashed between ack-rename and lease-unlink.
        """
        for state in ALL_STATES:
            directory = os.path.join(self.root, state)
            try:
                names = os.listdir(directory)
            except FileNotFoundError:
                continue
            for name in names:
                if not name.startswith(".tmp-"):
                    continue
                path = os.path.join(directory, name)
                try:
                    if now - os.path.getmtime(path) > self.lease_s:
                        os.unlink(path)
                except OSError:
                    continue
        claimed_dir = os.path.join(self.root, "claimed")
        for name in os.listdir(claimed_dir):
            if not name.endswith(".lease.json") or name.startswith("."):
                continue
            job_id = name[: -len(".lease.json")]
            if os.path.exists(self._record_path("claimed", job_id)):
                continue
            lease = self._read_optional(os.path.join(claimed_dir, name))
            if lease is not None:
                expired = lease.get("expires_at", 0) <= now
                alive = _pid_alive(int(lease.get("pid", -1)))
                if not expired and alive is not False:
                    continue
            try:
                os.unlink(os.path.join(claimed_dir, name))
            except FileNotFoundError:
                pass

    def scrub(self) -> List[Dict]:
        """Quarantine corrupt records in every live state.

        ``claim`` and ``requeue_stale`` only inspect the records they
        touch; ``scrub`` sweeps all four live states — catching e.g. a
        ``done`` record torn after its ack rename — and returns the
        quarantine records (also in :attr:`last_quarantined`).
        """
        self.last_quarantined = []
        for state in QUEUE_STATES:
            for job_id in self.jobs(state):
                _, problem = self._read_record(
                    self._record_path(state, job_id)
                )
                if problem is None:
                    continue
                self.quarantine(state, job_id, problem)
                if state == "claimed":
                    try:
                        os.unlink(self._lease_path(job_id))
                    except FileNotFoundError:
                        pass
        return self.last_quarantined

    # -- quarantine --------------------------------------------------------
    def quarantine(
        self, state: str, job_id: str, reason: str
    ) -> Optional[str]:
        """Move a torn/tampered record into ``corrupt/``.

        Writes a ``<job_id>.reason.json`` diagnostics sidecar (reason,
        source state, wall time, pid) next to the quarantined bytes so
        the corruption is inspectable.  Best-effort by design — it
        must never wedge a claim loop — and returns the quarantine
        path, or ``None`` when the record vanished first.
        """
        source = self._record_path(state, job_id)
        corrupt_dir = os.path.join(self.root, CORRUPT_STATE)
        os.makedirs(corrupt_dir, exist_ok=True)
        target = os.path.join(corrupt_dir, f"{job_id}.json")
        sequence = 0
        while os.path.exists(target):
            sequence += 1
            target = os.path.join(
                corrupt_dir, f"{job_id}.{sequence}.json"
            )
        try:
            os.rename(source, target)
        except FileNotFoundError:
            return None
        diagnostics = {
            "job_id": job_id,
            "from_state": state,
            "reason": reason,
            "quarantined_at": time.time(),
            "by_pid": os.getpid(),
        }
        try:
            _write_json_atomic(
                target[: -len(".json")] + ".reason.json",
                diagnostics,
                durable=self.durable,
            )
        except OSError:
            pass  # diagnostics are best-effort; the quarantine stands
        self.last_quarantined.append(
            {"job_id": job_id, "reason": reason, "record": target}
        )
        return target

    # -- introspection ----------------------------------------------------
    def read(self, job_id: str, state: Optional[str] = None) -> Dict:
        """Load a job record, searching all states unless one is given.

        Raises ``ValueError`` for a missing job, and for a record
        whose checksum proves it torn or tampered (with the reason).
        """
        states = (state,) if state else QUEUE_STATES
        for candidate in states:
            payload, problem = self._read_record(
                self._record_path(candidate, job_id)
            )
            if problem is not None:
                raise ValueError(
                    f"job {job_id!r} record in {candidate!r} is "
                    f"corrupt: {problem}"
                )
            if payload is not None:
                payload["state"] = candidate
                return payload
        raise ValueError(f"no job {job_id!r} in queue {self.root}")

    def _read_record(
        self, path: str
    ) -> Tuple[Optional[Dict], Optional[str]]:
        """Tolerant record read: ``(payload, problem)``.

        ``(None, None)`` — no file; ``(None, reason)`` — the file
        exists but is torn, not JSON, or fails its self-checksum;
        ``(payload, None)`` — intact.  Records written before the
        checksum era (no ``record_sha256`` field) are accepted.
        """
        try:
            with open(path, "r", encoding="ascii") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return None, None
        except OSError as error:
            return None, f"unreadable: {error}"
        try:
            payload = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            return None, f"torn JSON ({error}; {len(raw)} bytes)"
        if not isinstance(payload, dict):
            return (
                None,
                f"not a record object ({type(payload).__name__})",
            )
        stored = payload.get(RECORD_CHECKSUM_KEY)
        if stored is not None and stored != _record_checksum(payload):
            return None, "checksum mismatch (torn write or bit rot)"
        return payload, None

    @staticmethod
    def _read_optional(path: str) -> Optional[Dict]:
        try:
            with open(path, "r", encoding="ascii") as handle:
                return json.load(handle)
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            # Lease writes are atomic, so a torn file means a crashed
            # writer from a previous incarnation; treat it as absent
            # so requeue/cleanup logic can reclaim the job.
            return None

    def jobs(self, state: str) -> List[str]:
        if state not in ALL_STATES:
            raise ValueError(f"unknown state {state!r}")
        directory = os.path.join(self.root, state)
        try:
            names = os.listdir(directory)
        except FileNotFoundError:
            return []  # pre-corrupt-state queue opened read-only
        return sorted(
            name[: -len(".json")]
            for name in names
            if name.endswith(".json")
            and ".lease." not in name
            and ".reason." not in name
            and not name.startswith(".")
        )

    def counts(self) -> Dict[str, int]:
        return {state: len(self.jobs(state)) for state in ALL_STATES}
