"""Crash/corruption hardening for the serve stack.

Covers the robustness contract end to end: checksummed records and
quarantine-on-read, exclusive enqueue, temp-file sweeps, durability
fsyncs, ambiguous-pid lease handling, graceful SIGTERM drains (real
subprocess), supervisor restarts after a chaos kill, and the
deterministic-jitter client backoff.
"""

import errno
import json
import multiprocessing
import os
import signal
import time

import pytest

from repro.chaos.injector import ChaosInjector
from repro.chaos.plan import ChaosEvent, ChaosPlan
from repro.obs.session import session
from repro.serve.cache import ResultCache
from repro.serve.jobs import JobSpec
from repro.serve.queue import (
    JobQueue,
    _pid_alive,
    _write_json_atomic,
)
from repro.serve.retry import backoff_delays, call_with_retries
from repro.serve.service import (
    merged_queue_metrics,
    result,
    serve,
    submit,
    worker_loop,
)

SMALL = dict(workload="financial", requests=60, seed=3)


@pytest.fixture
def queue(tmp_path):
    return JobQueue(tmp_path / "q", durable=False)


def _tamper(path, mutate):
    with open(path) as handle:
        payload = json.load(handle)
    mutate(payload)
    with open(path, "w") as handle:
        json.dump(payload, handle)


class TestChecksums:
    def test_tampered_pending_record_quarantined_on_claim(self, queue):
        queue.enqueue("job-1", {"spec": {"x": 1}})
        _tamper(
            queue._record_path("pending", "job-1"),
            lambda p: p.__setitem__("spec", {"x": 2}),
        )
        assert queue.claim() is None  # nothing claimable, no wedge
        assert queue.counts()["corrupt"] == 1
        assert queue.counts()["pending"] == 0
        (entry,) = queue.last_quarantined
        assert "checksum mismatch" in entry["reason"]

    def test_torn_pending_record_quarantined_on_claim(self, queue):
        queue.enqueue("job-1", {})
        queue.enqueue("job-2", {})
        with open(queue._record_path("pending", "job-1"), "w") as handle:
            handle.write('{"job_id": "job-')  # crashed mid-write
        record = queue.claim()  # skips the torn one, claims the next
        assert record["job_id"] == "job-2"
        assert queue.counts()["corrupt"] == 1

    def test_quarantine_writes_reason_sidecar(self, queue):
        queue.enqueue("job-1", {})
        _tamper(
            queue._record_path("pending", "job-1"),
            lambda p: p.__setitem__("attempts", 9),
        )
        queue.claim()
        sidecar = os.path.join(
            queue.root, "corrupt", "job-1.reason.json"
        )
        with open(sidecar) as handle:
            diagnostics = json.load(handle)
        assert diagnostics["job_id"] == "job-1"
        # Claim renames into claimed/ before the tolerant read, so
        # that is where the corruption was caught.
        assert diagnostics["from_state"] == "claimed"
        assert "checksum" in diagnostics["reason"]

    def test_legacy_record_without_checksum_accepted(self, queue):
        path = queue._record_path("pending", "job-1")
        with open(path, "w") as handle:
            json.dump({"spec": {"x": 1}, "attempts": 0}, handle)
        record = queue.claim()
        assert record["job_id"] == "job-1"
        queue.ack("job-1", {"status": "done"})
        assert queue.read("job-1")["state"] == "done"

    def test_read_names_the_corruption(self, queue):
        queue.enqueue("job-1", {})
        _tamper(
            queue._record_path("pending", "job-1"),
            lambda p: p.__setitem__("attempts", 9),
        )
        with pytest.raises(ValueError, match="checksum mismatch"):
            queue.read("job-1")

    def test_scrub_sweeps_every_live_state(self, queue):
        queue.enqueue("job-1", {})
        queue.claim()
        queue.ack("job-1", {"status": "done"})
        _tamper(
            queue._record_path("done", "job-1"),
            lambda p: p.__setitem__("outcome", {"status": "hacked"}),
        )
        quarantined = queue.scrub()
        assert [q["job_id"] for q in quarantined] == ["job-1"]
        assert queue.counts() == {
            "pending": 0, "claimed": 0, "done": 0, "failed": 0,
            "corrupt": 1,
        }

    def test_quarantine_collision_gets_sequence_suffix(self, queue):
        for _ in range(2):
            queue.enqueue("job-1", {})
            _tamper(
                queue._record_path("pending", "job-1"),
                lambda p: p.__setitem__("attempts", 9),
            )
            queue.claim()
        names = sorted(os.listdir(os.path.join(queue.root, "corrupt")))
        assert "job-1.json" in names
        assert "job-1.1.json" in names


class TestExclusiveEnqueue:
    def test_race_loser_gets_value_error(self, queue, monkeypatch):
        queue.enqueue("job-1", {})
        # Simulate the TOCTOU window: the record appears between the
        # friendly pre-check and the write.  With the pre-check blind,
        # the exclusive link is the backstop.
        monkeypatch.setattr(
            "repro.serve.queue.os.path.exists", lambda path: False
        )
        with pytest.raises(ValueError, match="already exists"):
            queue.enqueue("job-1", {})

    def test_exclusive_write_raises_file_exists(self, tmp_path):
        target = str(tmp_path / "record.json")
        _write_json_atomic(target, {"a": 1}, durable=False)
        with pytest.raises(FileExistsError):
            _write_json_atomic(
                target, {"a": 2}, durable=False, exclusive=True
            )
        with open(target) as handle:
            assert json.load(handle)["a"] == 1  # loser changed nothing


class TestDurability:
    def test_durable_write_fsyncs_file_and_directory(
        self, tmp_path, monkeypatch
    ):
        synced = []
        real_fsync = os.fsync

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", counting_fsync)
        _write_json_atomic(
            str(tmp_path / "r.json"), {"a": 1}, durable=True
        )
        assert len(synced) == 2  # temp file, then parent directory

    def test_non_durable_write_skips_fsync(self, tmp_path, monkeypatch):
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        _write_json_atomic(
            str(tmp_path / "r.json"), {"a": 1}, durable=False
        )
        assert synced == []

    def test_requeue_sweeps_orphaned_temp_files(self, tmp_path):
        queue = JobQueue(tmp_path / "q", lease_s=0.05, durable=False)
        orphan = os.path.join(queue.root, "pending", ".tmp-dead.json")
        with open(orphan, "w") as handle:
            handle.write('{"half": ')
        old = time.time() - 60
        os.utime(orphan, (old, old))
        fresh = os.path.join(queue.root, "done", ".tmp-live.json")
        with open(fresh, "w") as handle:
            handle.write("{}")
        queue.requeue_stale()
        assert not os.path.exists(orphan)  # stale: swept
        assert os.path.exists(fresh)  # a live writer's temp survives

    def test_requeue_sweeps_ownerless_lease(self, queue):
        queue.enqueue("job-1", {})
        queue.claim()
        # Crash between ack-rename and lease-unlink: record moved to
        # done, lease left behind with a dead owner pid.
        os.rename(
            queue._record_path("claimed", "job-1"),
            queue._record_path("done", "job-1"),
        )
        _tamper(
            queue._lease_path("job-1"),
            lambda p: p.__setitem__("pid", 2 ** 22 + 1),
        )
        queue.requeue_stale()
        assert not os.path.exists(queue._lease_path("job-1"))


class TestAmbiguousPid:
    def test_eperm_is_ambiguous(self, monkeypatch):
        def fake_kill(pid, sig):
            raise PermissionError(errno.EPERM, "not ours")

        monkeypatch.setattr(os, "kill", fake_kill)
        assert _pid_alive(1234) is None

    def test_esrch_is_dead_and_self_is_alive(self):
        assert _pid_alive(2 ** 22 + 1) is False
        assert _pid_alive(os.getpid()) is True
        assert _pid_alive(0) is False
        assert _pid_alive(-7) is False

    def test_ambiguous_owner_keeps_lease_until_expiry(
        self, tmp_path, monkeypatch
    ):
        queue = JobQueue(tmp_path / "q", lease_s=0.2, durable=False)
        queue.enqueue("job-1", {})
        queue.claim()
        monkeypatch.setattr(
            "repro.serve.queue._pid_alive", lambda pid: None
        )
        # EPERM-ambiguous owner: not provably dead, lease not expired —
        # the claim must be left alone.
        assert queue.requeue_stale() == []
        assert queue.counts()["claimed"] == 1
        time.sleep(0.25)
        # Expiry breaks the tie regardless of pid ambiguity.
        assert queue.requeue_stale() == ["job-1"]
        assert queue.read("job-1")["attempts"] == 1


class TestRelease:
    def test_release_returns_to_pending_attempts_intact(self, queue):
        queue.enqueue("job-1", {})
        claimed = queue.claim()
        assert claimed["attempts"] == 0
        assert queue.release("job-1") is True
        record = queue.read("job-1")
        assert record["state"] == "pending"
        assert record["attempts"] == 0  # no crash-requeue bump
        assert not os.path.exists(queue._lease_path("job-1"))
        assert queue.claim()["job_id"] == "job-1"

    def test_release_of_unclaimed_is_false(self, queue):
        queue.enqueue("job-1", {})
        assert queue.release("job-1") is False
        assert queue.read("job-1")["state"] == "pending"


class TestBackoff:
    def test_schedule_is_deterministic_per_seed(self):
        assert backoff_delays(5, seed=3) == backoff_delays(5, seed=3)
        assert backoff_delays(5, seed=3) != backoff_delays(5, seed=4)

    def test_delays_bounded_and_capped(self):
        delays = backoff_delays(8, base_s=0.05, cap_s=2.0, seed=0)
        for attempt, delay in enumerate(delays):
            ceiling = min(2.0, 0.05 * 2 ** attempt)
            assert ceiling * 0.5 <= delay < ceiling

    def test_retries_sleep_the_published_schedule(self):
        sleeps = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 4:
                raise OSError("transient")
            return "ok"

        outcome = call_with_retries(
            flaky, retries=5, seed=7, sleep_fn=sleeps.append
        )
        assert outcome == "ok"
        assert sleeps == backoff_delays(5, seed=7)[:3]

    def test_non_retryable_error_propagates_immediately(self):
        sleeps = []

        def bad():
            raise KeyError("not transient")

        with pytest.raises(KeyError):
            call_with_retries(bad, retries=5, sleep_fn=sleeps.append)
        assert sleeps == []

    def test_exhausted_retries_reraise(self):
        calls = {"n": 0}

        def always():
            calls["n"] += 1
            raise OSError("still down")

        with pytest.raises(OSError, match="still down"):
            call_with_retries(
                always, retries=2, sleep_fn=lambda s: None
            )
        assert calls["n"] == 3

    def test_deadline_stops_before_overrunning(self):
        clock = {"now": 0.0}
        sleeps = []

        def tick(delay):
            sleeps.append(delay)
            clock["now"] += delay

        def always():
            raise OSError("down")

        with pytest.raises(OSError):
            call_with_retries(
                always,
                retries=50,
                base_s=1.0,
                cap_s=1.0,
                deadline_s=2.5,
                sleep_fn=tick,
                now_fn=lambda: clock["now"],
            )
        # Every sleep taken fits the budget; the overrunning one
        # re-raises instead of sleeping.
        assert sum(sleeps) <= 2.5
        assert 0 < len(sleeps) < 50

    def test_on_retry_hook_sees_each_attempt(self):
        seen = []
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise OSError("transient")

        call_with_retries(
            flaky,
            retries=5,
            sleep_fn=lambda s: None,
            on_retry=lambda attempt, error: seen.append(attempt),
        )
        assert seen == [0, 1]


class TestCacheIntegrity:
    def test_corrupt_cached_payload_quarantined_and_rerun(self, tmp_path):
        q = tmp_path / "q"
        first = submit(q, JobSpec(**SMALL))
        worker_loop(q, drain=True, durable=False)
        _, clean_payload = result(q, first["job_id"])

        cache = ResultCache(q / "cache")
        (key,) = cache.keys()
        with open(cache._path(key), "r+b") as handle:
            handle.truncate(20)  # torn write after the fact

        second = submit(q, JobSpec(**SMALL))
        assert second["already_cached"]  # the torn file still "hits"
        worker_loop(q, drain=True, durable=False)

        # The worker refused the torn bytes, quarantined them, and
        # re-simulated to byte-identical output.
        _, payload = result(q, second["job_id"])
        assert payload == clean_payload
        record = result(q, second["job_id"])[0]
        assert record["outcome"]["cached"] is False
        corrupt = os.path.join(q, "cache", "corrupt", key[:2])
        assert sorted(os.listdir(corrupt)) == [
            f"{key}.json", f"{key}.reason.json",
        ]
        assert cache.keys() == [key]  # repopulated, corrupt excluded


def _sigterm_child(queue_dir):
    plan = ChaosPlan([
        ChaosEvent(
            site="service.job.before_run", kind="hang", hang_s=60.0
        )
    ])
    with session(failpoints=ChaosInjector(plan)):
        worker_loop(
            queue_dir,
            owner="sig",
            metrics=True,
            durable=False,
            handle_signals=True,
        )


class TestGracefulShutdown:
    def test_sigterm_releases_in_flight_and_flushes_metrics(
        self, tmp_path
    ):
        q = str(tmp_path / "q")
        record = submit(q, JobSpec(**SMALL))
        child = multiprocessing.Process(
            target=_sigterm_child, args=(q,)
        )
        child.start()
        try:
            deadline = time.time() + 15
            queue = JobQueue(q, durable=False)
            while queue.counts()["claimed"] == 0:
                assert time.time() < deadline, "worker never claimed"
                time.sleep(0.02)
            time.sleep(0.1)  # let it reach the 60s chaos hang
            os.kill(child.pid, signal.SIGTERM)
            child.join(15)
        finally:
            if child.is_alive():
                child.kill()
                child.join()
        assert child.exitcode == 0  # graceful drain, not a crash

        # The in-flight job went back to pending, attempts intact.
        back = queue.read(record["job_id"])
        assert back["state"] == "pending"
        assert back["attempts"] == 0
        assert not os.path.exists(queue._lease_path(record["job_id"]))

        # The final metrics snapshot made it to disk on the way out.
        registry, workers = merged_queue_metrics(q)
        assert [w["worker"] for w in workers] == ["sig"]
        released = registry.counter(
            "repro_jobs_released_total", labels=("worker",)
        )
        assert released.labels(worker="sig").value == 1


class TestSupervisorRestart:
    def test_killed_worker_restarted_and_queue_drained(self, tmp_path):
        q = str(tmp_path / "q")
        record = submit(q, JobSpec(**SMALL))
        plan = ChaosPlan([
            ChaosEvent(
                site="service.job.before_run", kind="worker_kill"
            )
        ])
        injector = ChaosInjector(
            plan, state_dir=str(tmp_path / "chaos")
        )
        with session(failpoints=injector):
            codes = serve(
                q, workers=1, drain=True, max_restarts=2,
                durable=False,
            )
        assert codes == [137, 0]  # chaos kill, then a clean drain
        queue = JobQueue(q, durable=False)
        done = queue.read(record["job_id"])
        assert done["state"] == "done"
        assert done["attempts"] == 1  # the crash-requeue charged one

    def test_restart_cap_respected(self, tmp_path):
        q = str(tmp_path / "q")
        submit(q, JobSpec(**SMALL))
        plan = ChaosPlan([
            ChaosEvent(
                site="service.job.before_run",
                kind="worker_kill",
                occurrence=1,
            ),
            ChaosEvent(
                site="service.job.before_run",
                kind="worker_kill",
                occurrence=1,
            ),
        ])
        injector = ChaosInjector(
            plan, state_dir=str(tmp_path / "chaos")
        )
        with session(failpoints=injector):
            codes = serve(
                q, workers=1, drain=True, max_restarts=1,
                durable=False,
            )
        # Two kills planned, one restart allowed: the pool dies after
        # the second kill instead of looping forever.
        assert codes == [137, 137]
