"""Tests for the discrete-event kernel: events, processes, conditions."""

import random

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Timeout,
)


@pytest.fixture
def env():
    return Environment()


class TestEventLifecycle:
    def test_new_event_is_pending(self, env):
        event = env.event()
        assert not event.triggered
        assert not event.processed

    def test_succeed_sets_value(self, env):
        event = env.event()
        event.succeed(42)
        assert event.triggered
        assert event.ok
        assert event.value == 42

    def test_fail_sets_exception(self, env):
        event = env.event()
        error = ValueError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_succeed_raises(self, env):
        event = env.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception_instance(self, env):
        event = env.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_value_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_ok_before_trigger_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError):
            _ = event.ok

    def test_trigger_copies_state(self, env):
        source = env.event()
        source.succeed("payload")
        target = env.event()
        target.trigger(source)
        assert target.triggered
        assert target.value == "payload"


class TestTimeout:
    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.timeout(-1)

    def test_timeout_advances_clock(self, env):
        env.process(self._wait(env, 5.5))
        env.run()
        assert env.now == pytest.approx(5.5)

    @staticmethod
    def _wait(env, delay):
        yield env.timeout(delay)

    def test_timeout_value_passthrough(self, env):
        result = []

        def proc():
            value = yield env.timeout(1, value="hello")
            result.append(value)

        env.process(proc())
        env.run()
        assert result == ["hello"]

    def test_zero_delay_fires_at_current_time(self, env):
        times = []

        def proc():
            yield env.timeout(0)
            times.append(env.now)

        env.process(proc())
        env.run()
        assert times == [0.0]


class TestProcess:
    def test_requires_generator(self, env):
        with pytest.raises(TypeError):
            env.process(lambda: None)

    def test_sequential_timeouts_accumulate(self, env):
        def proc():
            yield env.timeout(3)
            yield env.timeout(4)

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(7.0)

    def test_return_value_becomes_event_value(self, env):
        def inner():
            yield env.timeout(1)
            return "result"

        def outer(sink):
            value = yield env.process(inner())
            sink.append(value)

        sink = []
        env.process(outer(sink))
        env.run()
        assert sink == ["result"]

    def test_is_alive_transitions(self, env):
        def proc():
            yield env.timeout(10)

        process = env.process(proc())
        assert process.is_alive
        env.run()
        assert not process.is_alive

    def test_two_processes_interleave(self, env):
        log = []

        def worker(name, delay):
            yield env.timeout(delay)
            log.append((name, env.now))
            yield env.timeout(delay)
            log.append((name, env.now))

        env.process(worker("a", 2))
        env.process(worker("b", 3))
        env.run()
        assert log == [("a", 2), ("b", 3), ("a", 4), ("b", 6)]

    def test_exception_in_process_propagates(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("inner failure")

        env.process(proc())
        with pytest.raises(RuntimeError, match="inner failure"):
            env.run()

    def test_waiter_catches_failed_process(self, env):
        def failing():
            yield env.timeout(1)
            raise ValueError("expected")

        def waiter(sink):
            try:
                yield env.process(failing())
            except ValueError as exc:
                sink.append(str(exc))

        sink = []
        env.process(waiter(sink))
        env.run()
        assert sink == ["expected"]

    def test_yield_non_event_fails_process(self, env):
        def proc():
            yield 42

        env.process(proc())
        with pytest.raises(SimulationError, match="non-event"):
            env.run()

    def test_wait_already_processed_event_continues(self, env):
        event = env.event()
        event.succeed("early")
        sink = []

        def late_waiter():
            yield env.timeout(5)
            value = yield event
            sink.append((env.now, value))

        env.process(late_waiter())
        env.run()
        assert sink == [(5.0, "early")]


class TestInterrupt:
    def test_interrupt_delivers_cause(self, env):
        sink = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt as interrupt:
                sink.append((env.now, interrupt.cause))

        def attacker(process):
            yield env.timeout(3)
            process.interrupt("stop now")

        process = env.process(victim())
        env.process(attacker(process))
        env.run()
        assert sink == [(3.0, "stop now")]

    def test_interrupt_terminated_process_raises(self, env):
        def quick():
            yield env.timeout(1)

        process = env.process(quick())
        env.run()
        with pytest.raises(SimulationError):
            process.interrupt()

    def test_interrupted_process_can_continue(self, env):
        log = []

        def victim():
            try:
                yield env.timeout(100)
            except Interrupt:
                pass
            yield env.timeout(2)
            log.append(env.now)

        def attacker(process):
            yield env.timeout(1)
            process.interrupt()

        process = env.process(victim())
        env.process(attacker(process))
        env.run()
        assert log == [3.0]


class TestRun:
    def test_run_until_time_stops_clock(self, env):
        def ticker():
            while True:
                yield env.timeout(1)

        env.process(ticker())
        env.run(until=10)
        assert env.now == pytest.approx(10.0)

    def test_run_until_event_returns_value(self, env):
        def proc():
            yield env.timeout(2)
            return "done"

        process = env.process(proc())
        assert env.run(until=process) == "done"

    def test_run_until_past_time_rejected(self, env):
        env.process(iter_timeout(env, 5))
        env.run()
        with pytest.raises(ValueError):
            env.run(until=1)

    def test_run_until_never_triggered_event_raises(self, env):
        event = env.event()
        with pytest.raises(SimulationError, match="never"):
            env.run(until=event)

    def test_run_empty_schedule_returns_none(self, env):
        assert env.run() is None

    def test_peek_empty_is_inf(self, env):
        assert env.peek() == float("inf")

    def test_peek_shows_next_event_time(self, env):
        env.timeout(7)
        assert env.peek() == pytest.approx(7.0)

    def test_same_time_events_fire_in_schedule_order(self, env):
        order = []

        def proc(tag):
            yield env.timeout(5)
            order.append(tag)

        for tag in ("first", "second", "third"):
            env.process(proc(tag))
        env.run()
        assert order == ["first", "second", "third"]


def iter_timeout(env, delay):
    yield env.timeout(delay)


class TestConditions:
    def test_all_of_waits_for_every_event(self, env):
        sink = []

        def proc():
            result = yield env.all_of(
                [env.timeout(1, value="a"), env.timeout(5, value="b")]
            )
            sink.append((env.now, sorted(result.todict().values())))

        env.process(proc())
        env.run()
        assert sink == [(5.0, ["a", "b"])]

    def test_any_of_fires_on_first(self, env):
        sink = []

        def proc():
            yield env.any_of([env.timeout(4), env.timeout(1)])
            sink.append(env.now)

        env.process(proc())
        env.run()
        assert sink == [1.0]

    def test_all_of_empty_triggers_immediately(self, env):
        condition = AllOf(env, [])
        assert condition.triggered

    def test_condition_value_mapping(self, env):
        timeout_a = env.timeout(1, value="a")
        timeout_b = env.timeout(2, value="b")
        sink = {}

        def proc():
            result = yield env.all_of([timeout_a, timeout_b])
            sink["a"] = result[timeout_a]
            sink["b"] = result[timeout_b]
            sink["len"] = len(result)
            sink["contains"] = timeout_a in result

        env.process(proc())
        env.run()
        assert sink == {"a": "a", "b": "b", "len": 2, "contains": True}

    def test_condition_value_missing_key_raises(self, env):
        timeout_a = env.timeout(1)
        other = env.timeout(2)
        errors = []

        def proc():
            result = yield env.all_of([timeout_a])
            try:
                _ = result[other]
            except KeyError:
                errors.append("keyerror")

        env.process(proc())
        env.run()
        assert errors == ["keyerror"]

    def test_all_of_propagates_failure(self, env):
        def failing():
            yield env.timeout(1)
            raise RuntimeError("child failed")

        def waiter(sink):
            try:
                yield env.all_of(
                    [env.process(failing()), env.timeout(10)]
                )
            except RuntimeError as exc:
                sink.append(str(exc))

        sink = []
        env.process(waiter(sink))
        env.run()
        assert sink == ["child failed"]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            env = Environment()
            log = []

            def worker(tag, delay):
                for _ in range(5):
                    yield env.timeout(delay)
                    log.append((tag, env.now))

            env.process(worker("x", 1.5))
            env.process(worker("y", 2.0))
            env.run()
            return log

        assert run_once() == run_once()

    def test_initial_time_respected(self):
        env = Environment(initial_time=100.0)
        assert env.now == 100.0
        env.process(iter_timeout(env, 5))
        env.run()
        assert env.now == pytest.approx(105.0)


def _tie_break_order(env, fire_log, processes=6, cycles=5):
    """Spawn ``processes`` cycling through identical delays.

    Every cycle, all processes' timeouts fire at the same simulated
    instant with the same priority — the pure tie-break case.  Each
    firing appends ``(tag, now)`` to ``fire_log``.
    """

    def cycle(tag):
        for _ in range(cycles):
            yield env.timeout(1.0)
            fire_log.append((tag, env.now))

    for tag in range(processes):
        env.process(cycle(tag))


class TestSimultaneousEventOrdering:
    def test_equal_time_events_fire_in_submission_order(self):
        env = Environment()
        log = []
        _tie_break_order(env, log)
        env.run()
        # At every instant, tags appear in creation order.
        for step in range(5):
            instant = log[step * 6:(step + 1) * 6]
            assert [tag for tag, _ in instant] == list(range(6))
            assert len({now for _, now in instant}) == 1

    def test_timeout_pool_revival_keeps_tie_break(self):
        # Recycled Timeout objects must not carry stale ordering: a
        # revived timeout scheduled at the same instant as a fresh one
        # still resolves by submission order.  Interleave a process
        # that churns the pool (many short cycles, each recycling its
        # Timeout) with late-started processes that draw revived
        # objects from it.
        env = Environment()
        log = []

        def churn(tag):
            for _ in range(10):
                yield env.timeout(0.5)
                log.append((tag, env.now))

        def late(tag, start):
            yield env.timeout(start)
            for _ in range(4):
                yield env.timeout(0.5)
                log.append((tag, env.now))

        env.process(churn("a"))
        env.process(churn("b"))
        env.process(late("x", 1.5))
        env.process(late("y", 1.5))
        env.run()
        by_instant = {}
        for tag, now in log:
            by_instant.setdefault(now, []).append(tag)
        # Where all four coincide, the order is scheduling order: the
        # late starters woke at 1.5 on timeouts created at time 0 —
        # older than the churners' cycle-3 timeouts — so they schedule
        # their next (pool-revived) timeouts first and fire first.
        for now, tags in by_instant.items():
            if set(tags) == {"a", "b", "x", "y"}:
                assert tags == ["x", "y", "a", "b"], (now, tags)
        assert any(
            set(tags) == {"a", "b", "x", "y"}
            for tags in by_instant.values()
        )


def chaotic_run(seed, processes=20, cycles=30):
    """One engine run full of schedule/cancel/revive traffic.

    Each process awaits pooled timeouts (revive: fired timeouts are
    recycled through the timeout pool); sibling processes randomly
    interrupt each other mid-wait (cancel: the interrupted wait's
    schedule entry goes stale and is lazily dropped).  Returns the
    full resumption record — order, simulated times and per-process
    interrupt counts — plus the environment it ran in.
    """
    rng = random.Random(seed)
    env = Environment()
    log = []
    workers = []

    def worker(me):
        interrupted = 0
        for cycle in range(cycles):
            delay = 0.25 + rng.random() * rng.choice([1.0, 10.0, 200.0])
            try:
                yield env.timeout(delay)
            except Interrupt:
                interrupted += 1
            log.append((me, cycle, env.now, interrupted))
            if workers and rng.random() < 0.15:
                victim = workers[rng.randrange(len(workers))]
                if victim._ok is None and victim is not env.active_process:
                    victim.interrupt(cause=me)

    for index in range(processes):
        workers.append(env.process(worker(index)))
    env.run()
    return log, env


class TestCancelRevive:
    @pytest.mark.parametrize("seed", range(6))
    def test_cancel_revive_runs_are_deterministic(self, seed):
        log, env = chaotic_run(seed)
        again, other = chaotic_run(seed)
        assert log == again
        assert (env.total_events, env.now) == (other.total_events, other.now)
        # Every process ran to completion, resumptions never went back
        # in time, and each stale entry was dropped when it surfaced.
        assert len(log) == 20 * 30
        times = [now for _, _, now, _ in log]
        assert times == sorted(times)
        assert any(interrupted for *_, interrupted in log)
        assert env.scheduled_events == 0
        assert env._stale_events == 0

    def test_timeout_pool_revival_is_order_neutral(self):
        # Serial awaited timeouts recycle through the pool; the pooled
        # fast path must not perturb inter-process ordering at shared
        # firing times.
        env = Environment()
        order = []

        def ticker(name, delay):
            for _ in range(50):
                yield env.timeout(delay)
                order.append((name, env.now))

        for name in range(8):
            env.process(ticker(name, 1.0))  # all collide every tick
        env.run()
        assert order == [
            (name, float(tick)) for tick in range(1, 51) for name in range(8)
        ]
        # Per process: one initialisation, 50 timeouts, one exit.
        assert env.total_events == 8 * 52
