"""The failpoint facility: its ambient session, zero-cost proof, and
the injector's replay semantics."""

import errno
import json
import os

import pytest

from repro.chaos.failpoints import NULL_FAILPOINTS, NullFailpoints
from repro.chaos.injector import ChaosInjector, ChaosKill, applied_events
from repro.chaos.plan import ChaosEvent, ChaosPlan
from repro.obs.session import current_session, session
from repro.serve.jobs import JobSpec
from repro.serve.service import submit, worker_loop

SMALL = dict(workload="financial", requests=60, seed=5)


class TestAmbient:
    def test_default_is_disabled_singleton(self):
        fp = current_session().failpoints
        assert fp is NULL_FAILPOINTS
        assert fp.enabled is False
        assert fp.clock_skew("queue.clock") == 0.0
        assert fp.hit("queue.clock") is None  # no-op

    def test_session_installs_and_restores(self):
        injector = ChaosInjector(ChaosPlan.empty(), kill_mode="raise")
        with session(failpoints=injector) as installed:
            assert installed.failpoints is injector
            assert current_session().failpoints is injector
        assert current_session().failpoints is NULL_FAILPOINTS


class ExplodingFailpoints(NullFailpoints):
    """enabled stays False; any method call is a test failure."""

    def _boom(self, *args, **kwargs):
        raise AssertionError(
            "failpoint method called despite enabled=False"
        )

    hit = clock_skew = bind_worker = _boom


class TestZeroCostDisabled:
    def test_clean_path_never_evaluates_failpoints(self, tmp_path):
        """The mirror of the ExplodingMetrics proof: with a disabled
        facility installed, a full submit -> claim -> run -> ack ->
        requeue sweep never calls a failpoint method."""
        q = tmp_path / "q"
        with session(failpoints=ExplodingFailpoints()):
            submit(q, JobSpec(**SMALL))
            snapshot = worker_loop(q, drain=True)
        assert snapshot["processed"] == 1


def _injector(events, **kwargs):
    kwargs.setdefault("kill_mode", "raise")
    return ChaosInjector(ChaosPlan(events), **kwargs)


class TestInjector:
    def test_enospc_raises_at_occurrence(self):
        injector = _injector([
            ChaosEvent(site="queue.record.before_replace",
                       kind="enospc", occurrence=2),
        ])
        injector.hit("queue.record.before_replace")  # occurrence 1
        with pytest.raises(OSError) as excinfo:
            injector.hit("queue.record.before_replace")
        assert excinfo.value.errno == errno.ENOSPC
        # one-shot: the third hit is clean
        injector.hit("queue.record.before_replace")

    def test_torn_write_truncates_the_path(self, tmp_path):
        victim = tmp_path / "record.json"
        victim.write_bytes(b"x" * 100)
        injector = _injector([
            ChaosEvent(site="queue.record.after_replace",
                       kind="torn_write", truncate_at=17),
        ])
        injector.hit("queue.record.after_replace", path=str(victim))
        assert victim.stat().st_size == 17

    def test_torn_write_skipped_without_path(self, tmp_path):
        injector = _injector([
            ChaosEvent(site="queue.record.after_replace",
                       kind="torn_write", truncate_at=17),
        ])
        injector.hit("queue.record.after_replace")  # no path: no fire
        assert injector.applied == []

    def test_kill_and_hang_require_bound_worker(self):
        injector = _injector([
            ChaosEvent(site="service.job.before_run",
                       kind="worker_kill"),
        ])
        injector.hit("service.job.before_run")  # client process: safe
        assert injector.applied == []
        injector.bind_worker("worker-0")
        injector._hits.clear()
        with pytest.raises(ChaosKill):
            injector.hit("service.job.before_run")

    def test_hang_calls_sleep(self):
        sleeps = []
        injector = _injector(
            [ChaosEvent(site="service.job.before_ack", kind="hang",
                        hang_s=3.5)],
            sleep_fn=sleeps.append,
        )
        injector.bind_worker("worker-1")
        injector.hit("service.job.before_ack")
        assert sleeps == [3.5]

    def test_clock_skew_is_persistent_and_worker_scoped(self):
        injector = _injector([
            ChaosEvent(site="queue.clock", kind="clock_skew",
                       occurrence=2, worker="worker-0", skew_s=10.0),
        ])
        injector.bind_worker("worker-0")
        assert injector.clock_skew("queue.clock") == 0.0  # hit 1
        assert injector.clock_skew("queue.clock") == 10.0  # threshold
        assert injector.clock_skew("queue.clock") == 10.0  # persists

        other = _injector([
            ChaosEvent(site="queue.clock", kind="clock_skew",
                       occurrence=1, worker="worker-0", skew_s=10.0),
        ])
        other.bind_worker("worker-1")
        assert other.clock_skew("queue.clock") == 0.0  # wrong worker

    def test_file_latch_applies_once_across_instances(self, tmp_path):
        events = [
            ChaosEvent(site="queue.record.before_replace",
                       kind="enospc"),
        ]
        first = _injector(events, state_dir=str(tmp_path))
        second = _injector(events, state_dir=str(tmp_path))
        with pytest.raises(OSError):
            first.hit("queue.record.before_replace")
        # a fresh instance (restarted worker) re-counts occurrences
        # but the latch blocks a second application
        second.hit("queue.record.before_replace")
        assert second.applied == []

        records = applied_events(str(tmp_path))
        assert len(records) == 1
        assert records[0]["event"]["kind"] == "enospc"
        assert records[0]["pid"] == os.getpid()

    def test_latch_records_are_json(self, tmp_path):
        injector = _injector(
            [ChaosEvent(site="queue.ack.before_rename",
                        kind="worker_kill")],
            state_dir=str(tmp_path),
        )
        injector.bind_worker("w")
        with pytest.raises(ChaosKill):
            injector.hit("queue.ack.before_rename")
        latch_dir = tmp_path / "applied"
        names = sorted(os.listdir(latch_dir))
        assert names == ["event-000.json"]
        with open(latch_dir / names[0]) as handle:
            record = json.load(handle)
        assert record["worker"] == "w"
        assert record["index"] == 0

    def test_bad_kill_mode_rejected(self):
        with pytest.raises(ValueError, match="kill_mode"):
            ChaosInjector(ChaosPlan.empty(), kill_mode="explode")
