"""Unit tests for the DES engine core: events, processes, run modes."""

from collections import Counter
from pathlib import Path

import pytest

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    SimulationEngine,
)
from repro.sim.events import Hook, Routine, Ticker


@pytest.fixture
def engine():
    return SimulationEngine()


class TestTimeAdvance:
    def test_starts_at_zero(self, engine):
        assert engine.now == 0.0

    def test_timeout_advances_clock(self, engine):
        engine.timeout(5.0)
        engine.run()
        assert engine.now == 5.0

    def test_run_until_deadline_advances_exactly(self, engine):
        engine.timeout(3.0)
        engine.run(until=10.0)
        assert engine.now == 10.0

    def test_run_until_deadline_does_not_process_later_events(self, engine):
        fired = []
        def proc():
            yield engine.timeout(5.0)
            fired.append(engine.now)
        engine.process(proc())
        engine.run(until=2.0)
        assert fired == []
        engine.run(until=10.0)
        assert fired == [5.0]

    def test_run_until_past_deadline_raises(self, engine):
        engine.run(until=5.0)
        with pytest.raises(ValueError):
            engine.run(until=1.0)

    def test_negative_delay_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.timeout(-1.0)

    def test_events_processed_in_time_order(self, engine):
        order = []
        def proc(delay, tag):
            yield engine.timeout(delay)
            order.append(tag)
        engine.process(proc(3.0, "c"))
        engine.process(proc(1.0, "a"))
        engine.process(proc(2.0, "b"))
        engine.run()
        assert order == ["a", "b", "c"]

    def test_fifo_at_equal_timestamps(self, engine):
        order = []
        def proc(tag):
            yield engine.timeout(1.0)
            order.append(tag)
        for tag in ["x", "y", "z"]:
            engine.process(proc(tag))
        engine.run()
        assert order == ["x", "y", "z"]

    def test_peek_reports_next_event_time(self, engine):
        engine.timeout(7.0)
        engine.timeout(2.0)
        assert engine.peek() == 2.0

    def test_peek_empty_is_inf(self, engine):
        assert engine.peek() == float("inf")


class TestProcess:
    def test_process_return_value(self, engine):
        def proc():
            yield engine.timeout(1.0)
            return 42
        p = engine.process(proc())
        result = engine.run(until=p)
        assert result == 42

    def test_timeout_value_is_delivered(self, engine):
        got = []
        def proc():
            value = yield engine.timeout(1.0)
            got.append(value)
        engine.process(proc())
        engine.run()
        assert got == [None]

    def test_process_waits_on_manual_event(self, engine):
        event = engine.event()
        got = []
        def waiter():
            got.append((yield event))
        def firer():
            yield engine.timeout(2.0)
            event.succeed("fired")
        engine.process(waiter())
        engine.process(firer())
        engine.run()
        assert got == ["fired"]
        assert engine.now == 2.0

    def test_process_chains_subprocess(self, engine):
        def child():
            yield engine.timeout(4.0)
            return "child-done"
        def parent():
            result = yield engine.process(child())
            return result
        p = engine.process(parent())
        assert engine.run(until=p) == "child-done"

    def test_yield_already_processed_event_continues_immediately(self, engine):
        event = engine.event()
        event.succeed("early")
        engine.run()  # processes the event
        got = []
        def proc():
            got.append((yield event))
            yield engine.timeout(1.0)
            got.append("after")
        engine.process(proc())
        engine.run()
        assert got == ["early", "after"]

    def test_unhandled_process_exception_propagates(self, engine):
        def proc():
            yield engine.timeout(1.0)
            raise RuntimeError("boom")
        engine.process(proc())
        with pytest.raises(RuntimeError, match="boom"):
            engine.run()

    def test_waiting_parent_receives_child_failure(self, engine):
        def child():
            yield engine.timeout(1.0)
            raise ValueError("child failed")
        def parent():
            try:
                yield engine.process(child())
            except ValueError as exc:
                return f"caught {exc}"
        p = engine.process(parent())
        assert engine.run(until=p) == "caught child failed"

    def test_failed_event_throws_into_process(self, engine):
        event = engine.event()
        def proc():
            try:
                yield event
            except RuntimeError:
                return "handled"
        p = engine.process(proc())
        event.fail(RuntimeError("nope"))
        assert engine.run(until=p) == "handled"

    def test_yield_non_event_raises(self, engine):
        def proc():
            yield 42
        engine.process(proc())
        with pytest.raises(RuntimeError, match="non-event"):
            engine.run()

    def test_run_until_event_deadlock_detected(self, engine):
        event = engine.event()  # never triggered
        with pytest.raises(RuntimeError, match="deadlock"):
            engine.run(until=event)



class TestTicker:
    """A keep-alive as a record: its handler's return value re-arms it."""

    def test_handler_runs_in_its_timer_entry_and_rearms(self, engine):
        seen = []

        def tick(tag):
            seen.append((tag, engine.now))
            return 2.0 if len(seen) < 3 else None

        ticker = Ticker(engine, tick, "t", first=1.5)
        assert ticker.is_alive
        engine.run()
        assert seen == [("t", 1.5), ("t", 3.5), ("t", 5.5)]
        assert not ticker.is_alive

    def test_first_none_makes_the_start_entry_the_first_call(self, engine):
        seen = []
        Ticker(engine, lambda _: seen.append(engine.now) or None)
        assert seen == []                 # not inside the constructor
        engine.run()
        assert seen == [0.0]

    def test_start_is_one_urgent_entry_like_a_process_start(self, engine):
        order = []
        engine.call_later(0.0, lambda _: order.append("normal"))
        Ticker(engine, lambda _: order.append("ticker") or None)
        engine.process(iter_once(order, "process"))
        engine.run()
        assert order == ["ticker", "process", "normal"]

    def test_interrupt_withdraws_the_timer_and_runs_final_once(self, engine):
        finals = []
        ticker = Ticker(engine, lambda _: 10.0, "arg", first=10.0,
                        final=finals.append)
        engine.run(until=25.0)
        ticker.interrupt("stop")
        assert not ticker.is_alive and finals == ["arg"]
        assert engine.peek() == float("inf")
        ticker.interrupt("again")
        assert finals == ["arg"]
        engine.run()
        assert engine.now == 25.0

    def test_a_handler_may_stop_its_own_ticker(self, engine):
        calls = []

        def tick(_):
            calls.append(engine.now)
            ticker.interrupt()
            return 1.0

        ticker = Ticker(engine, tick, first=1.0)
        engine.run()
        assert calls == [1.0] and not ticker.is_alive
        assert engine.now == 1.0

    def test_an_interrupt_before_the_start_still_makes_the_first_call(
            self, engine):
        calls, finals = [], []
        ticker = Ticker(engine, lambda _: calls.append(engine.now) or 5.0,
                        final=finals.append)
        ticker.interrupt()
        assert not ticker.is_alive and finals == [None]
        engine.run()
        assert calls == [0.0]             # the first segment ran, once
        assert engine.now == 0.0          # and armed nothing


def iter_once(log, tag):
    log.append(tag)
    yield from ()


class TestInterrupt:
    def test_interrupt_wakes_waiting_process(self, engine):
        def victim():
            try:
                yield engine.timeout(100.0)
            except Interrupt as intr:
                return f"interrupted:{intr.cause}"
        def attacker(target):
            yield engine.timeout(1.0)
            target.interrupt("why-not")
        p = engine.process(victim())
        engine.process(attacker(p))
        assert engine.run(until=p) == "interrupted:why-not"
        assert engine.now == pytest.approx(1.0)

    def test_interrupt_terminated_process_is_noop(self, engine):
        def victim():
            yield engine.timeout(1.0)
            return "done"
        p = engine.process(victim())
        def attacker():
            yield engine.timeout(5.0)
            p.interrupt()  # long after completion
        engine.process(attacker())
        engine.run()
        assert p.value == "done"

    def test_interrupted_process_can_continue(self, engine):
        log = []
        def victim():
            try:
                yield engine.timeout(100.0)
            except Interrupt:
                log.append(("intr", engine.now))
            yield engine.timeout(2.0)
            log.append(("resumed", engine.now))
        p = engine.process(victim())
        def attacker():
            yield engine.timeout(1.0)
            p.interrupt()
        engine.process(attacker())
        engine.run(until=p)
        assert log == [("intr", 1.0), ("resumed", 3.0)]

    def test_interrupt_cause_default_none(self, engine):
        causes = []
        def victim():
            try:
                yield engine.timeout(10.0)
            except Interrupt as intr:
                causes.append(intr.cause)
        p = engine.process(victim())
        def attacker():
            yield engine.timeout(1.0)
            p.interrupt()
        engine.process(attacker())
        engine.run()
        assert causes == [None]


class TestRoutine:
    """A generator run inside its starter's kernel entries: no event of its
    own at either end, same resume machinery as a process."""

    @staticmethod
    def counting(engine):
        entries = [0]
        schedule = engine.schedule

        def counted(*args, **kwargs):
            entries[0] += 1
            return schedule(*args, **kwargs)
        engine.schedule = counted
        return entries

    def test_starts_and_exits_inside_the_callers_entries(self, engine):
        from repro.sim.events import Routine
        entries = self.counting(engine)
        log = []

        def body():
            log.append(("started", engine.now))
            yield engine.timeout(3.0)
            return "tick" * 2

        routine = Routine(engine, body(),
                          lambda arg, ok, value: log.append(
                              (arg, ok, value, engine.now)), "who")
        routine.start()
        assert log == [("started", 0.0)]      # ran to its first yield at once
        assert routine.is_alive
        engine.run()
        assert log[1:] == [("who", True, "ticktick", 3.0)]
        assert not routine.is_alive
        assert entries[0] == 1                # the timeout, nothing else

    def test_an_exit_without_a_yield_continues_synchronously(self, engine):
        from repro.sim.events import Routine
        seen = []

        def body():
            return 7
            yield  # pragma: no cover

        Routine(engine, body(), lambda *a: seen.append(a), None).start()
        assert seen == [(None, True, 7)]
        assert engine.peek() == float("inf")

    def test_throw_lands_at_the_yield_and_runs_cleanup(self, engine):
        from repro.sim.events import Routine
        log = []
        timer = engine.timeout(100.0)

        def body():
            try:
                yield timer
            except Interrupt as intr:
                log.append(("cleanup", intr.cause))
                raise

        routine = Routine(engine, body(),
                          lambda arg, ok, value: log.append((ok, value)), None)
        routine.start()
        engine.run(until=5.0)
        exc = Interrupt("stop")
        routine.throw(exc)
        assert log == [("cleanup", "stop"), (False, exc)]
        assert not routine.is_alive
        assert routine._resume not in timer.callbacks   # detached
        routine.throw(Interrupt("again"))               # dead: a no-op
        assert len(log) == 2

    def test_a_failure_goes_to_the_continuation_not_the_engine(self, engine):
        from repro.sim.events import Routine
        seen = []

        def body():
            yield engine.timeout(1.0)
            raise ValueError("inside")

        Routine(engine, body(), lambda arg, ok, value: seen.append(
            (ok, type(value))), None).start()
        engine.run()                          # does not raise
        assert seen == [(False, ValueError)]


def valued(engine, delay, value):
    """An event that succeeds with *value* after *delay*."""
    event = engine.event()
    engine.call_later(delay, event.succeed, value)
    return event


class TestHook:
    def test_hands_the_outcome_to_its_callback(self, engine):
        ok, failed = engine.event(), engine.event()
        seen = []
        Hook(ok, lambda arg, error: seen.append((arg, error)), "a")
        Hook(failed, lambda arg, error: seen.append((arg, error)), "b")
        ok.succeed(42)
        boom = ValueError("boom")
        failed.fail(boom).defuse()
        engine.run()
        assert seen == [("a", None), ("b", boom)]

    def test_a_cancelled_hook_never_runs_and_the_others_do(self, engine):
        event = engine.event()
        seen = []
        first = Hook(event, lambda arg, error: seen.append(arg), 1)
        Hook(event, lambda arg, error: seen.append(arg), 2)
        first.cancel()
        event.succeed()
        engine.run()
        assert seen == [2]


class TestConditions:
    def test_all_of_waits_for_all(self, engine):
        t1 = valued(engine, 1.0, "a")
        t2 = valued(engine, 3.0, "b")
        cond = AllOf(engine, [t1, t2])
        result = engine.run(until=cond)
        assert result == {t1: "a", t2: "b"}
        assert engine.now == 3.0

    def test_any_of_fires_on_first(self, engine):
        t1 = valued(engine, 1.0, "fast")
        t2 = valued(engine, 5.0, "slow")
        cond = AnyOf(engine, [t1, t2])
        result = engine.run(until=cond)
        assert result == {t1: "fast"}
        assert engine.now == 1.0

    def test_a_condition_waits_with_one_bound_method(self, engine):
        # one ``_check`` serves every constituent: binding it per event
        # cost each waited-on task a method object
        events = [engine.event() for _ in range(3)]
        AllOf(engine, events)
        (check,) = {id(event.callbacks[0]) for event in events}

    def test_all_of_empty_succeeds_immediately(self, engine):
        cond = AllOf(engine, [])
        assert cond.triggered
        assert cond.value == {}

    def test_all_of_fails_fast(self, engine):
        t1 = engine.timeout(10.0)
        bad = engine.event()
        cond = AllOf(engine, [t1, bad])
        def failer():
            yield engine.timeout(1.0)
            bad.fail(ValueError("broken"))
        engine.process(failer())
        with pytest.raises(ValueError, match="broken"):
            engine.run(until=cond)
        assert engine.now == 1.0

    def test_condition_with_already_processed_event(self, engine):
        ev = engine.event()
        ev.succeed("pre")
        engine.run()
        t = valued(engine, 2.0, "post")
        cond = AllOf(engine, [ev, t])
        result = engine.run(until=cond)
        assert result == {ev: "pre", t: "post"}

    def test_engine_helpers(self, engine):
        t1 = engine.timeout(1.0)
        t2 = engine.timeout(2.0)
        engine.run(until=engine.all_of([t1, t2]))
        assert engine.now == 2.0


class TestEventSemantics:
    def test_double_succeed_rejected(self, engine):
        ev = engine.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)

    def test_fail_requires_exception(self, engine):
        ev = engine.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, engine):
        ev = engine.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_defused_failure_does_not_propagate(self, engine):
        ev = engine.event()
        ev.fail(RuntimeError("quiet"))
        ev.defuse()
        engine.run()  # should not raise

    def test_undefused_failure_propagates_from_step(self, engine):
        ev = engine.event()
        ev.fail(RuntimeError("loud"))
        with pytest.raises(RuntimeError, match="loud"):
            engine.run()

    def test_mixing_engines_in_condition_rejected(self, engine):
        other = SimulationEngine()
        with pytest.raises(ValueError):
            AllOf(engine, [engine.event(), other.event()])


class TestFlattenedKernel:
    """The now-queue fast path and pooled Deferred dispatch."""

    def test_zero_delay_events_preserve_fifo_order(self, engine):
        order = []
        for i in range(5):
            ev = engine.event()
            ev.callbacks.append(lambda e, i=i: order.append(i))
            ev.succeed(i)
        engine.run()
        assert order == [0, 1, 2, 3, 4]

    def test_urgent_beats_now_queue_at_same_timestamp(self, engine):
        from repro.sim.events import URGENT
        order = []
        normal = engine.event()
        normal.callbacks.append(lambda e: order.append("normal"))
        normal.succeed()  # rides the now-queue
        urgent = engine.event()
        urgent.callbacks.append(lambda e: order.append("urgent"))
        urgent._ok = True
        urgent._value = None
        engine.schedule(urgent, 0.0, URGENT)
        engine.run()
        # URGENT goes through the heap but must still dispatch first
        assert order == ["urgent", "normal"]

    def test_now_queue_merges_with_future_heap_events(self, engine):
        order = []

        def body():
            yield engine.timeout(1.0)
            order.append("timeout")
            ev = engine.event()
            ev.callbacks.append(lambda e: order.append("immediate"))
            ev.succeed()
            yield engine.timeout(1.0)
            order.append("later")
        engine.process(body())
        engine.run()
        assert order == ["timeout", "immediate", "later"]
        assert engine.now == 2.0

    def test_peek_sees_the_now_queue(self, engine):
        assert engine.peek() == float("inf")
        engine.event().succeed()
        assert engine.peek() == 0.0
        engine.run()
        assert engine.peek() == float("inf")

    def test_call_later_zero_delay_fires_in_order(self, engine):
        order = []
        engine.call_later(0.0, order.append, "a")
        engine.call_later(0.0, order.append, "b")
        engine.run()
        assert order == ["a", "b"]

    def test_call_later_with_delay_fires_at_time(self, engine):
        seen = []
        engine.call_later(3.0, lambda arg: seen.append((engine.now, arg)),
                          "x")
        engine.run()
        assert seen == [(3.0, "x")]

    def test_call_later_cancel_before_fire(self, engine):
        seen = []
        handle = engine.call_later(1.0, seen.append, "dropped")
        engine.call_later(2.0, seen.append, "kept")
        handle.cancel()
        engine.run()
        assert seen == ["kept"]
        assert engine.now == 2.0

    def test_deferred_handles_are_pooled(self, engine):
        engine.call_later(0.0, lambda _: None)
        engine.run()
        assert len(engine._pool) == 1
        recycled = engine._pool[-1]
        again = engine.call_later(0.0, lambda _: None)
        assert again is recycled  # reused, not reallocated
        engine.run()

    def test_cancelled_deferred_is_not_pooled(self, engine):
        handle = engine.call_later(1.0, lambda _: None)
        handle.cancel()
        engine.run()
        assert handle not in engine._pool

    def test_run_until_event_with_cancelled_heap_head(self, engine):
        # regression for the double-prune bug: a cancelled timeout at the
        # heap head must be skipped exactly once on the until=Event path
        target = engine.timeout(2.0)
        doomed = engine.timeout(1.0)
        doomed.cancel()
        engine.run(until=target)
        assert engine.now == 2.0


class TestRunModes:
    """The three run() modes share one dispatch loop; these pin what each
    stop condition leaves behind."""

    def test_run_until_float_leaves_the_overshoot_entry_queued(self, engine):
        seen = []
        engine.call_later(0.0, seen.append, "dropped-now").cancel()
        engine.call_later(1.0, seen.append, "early")
        engine.call_later(2.0, seen.append, "on-time")
        engine.call_later(3.0, seen.append, "dropped-late").cancel()
        engine.call_later(5.0, seen.append, "late")
        engine.run(until=2.0)
        assert seen == ["early", "on-time"]  # at the deadline still fires
        assert engine.now == 2.0
        assert engine.peek() == 5.0
        engine.run()
        assert seen == ["early", "on-time", "late"]
        assert engine.now == 5.0

    def test_only_cancelled_entries_leave_nothing_to_run(self, engine):
        seen = []
        engine.call_later(1.0, seen.append, "late").cancel()
        engine.call_later(0.0, seen.append, "now").cancel()
        assert engine.peek() == float("inf")
        engine.run()
        assert (seen, engine.now) == ([], 0.0)

    def test_run_until_peek_fires_one_instant_and_its_children(self, engine):
        seen = []
        engine.call_later(1.0, seen.append, "dropped").cancel()
        engine.call_later(
            2.0, lambda _: engine.call_later(0.0, seen.append, "child"))
        engine.call_later(2.0, seen.append, "first")
        engine.call_later(3.0, seen.append, "second")
        engine.run(until=engine.peek())
        assert (seen, engine.now) == (["first", "child"], 2.0)
        assert engine.peek() == 3.0

    def test_run_until_float_fires_zero_delay_children_at_the_deadline(
            self, engine):
        seen = []
        engine.call_later(
            2.0, lambda _: engine.call_later(0.0, seen.append, "child"))
        engine.run(until=2.0)
        assert seen == ["child"]

    def test_run_until_event_returns_its_value_and_stops_there(self, engine):
        seen = []
        engine.call_later(1.0, seen.append, "a")
        stop = engine.timeout(2.0)
        stop.callbacks.append(lambda e: seen.append("stop-callback"))
        engine.call_later(3.0, seen.append, "b")
        assert engine.run(until=stop) is None
        assert seen == ["a", "stop-callback"]
        assert engine.now == 2.0
        assert engine.run(until=stop) is None  # already processed: no-op
        assert engine.now == 2.0
        engine.run()
        assert seen == ["a", "stop-callback", "b"]

    def test_run_until_failed_event_reraises_and_defuses(self, engine):
        stop = engine.event()
        engine.call_later(1.0, stop.fail, KeyError("lost"))
        stop.callbacks.append(lambda e: e.defuse())  # a waiter handled it
        with pytest.raises(KeyError, match="lost"):
            engine.run(until=stop)
        assert stop._defused
        engine.run()  # and the failure is not raised a second time

    @pytest.mark.parametrize("drive", ["run", "deadline", "event",
                                       "instants"])
    def test_a_raising_entry_leaves_the_kernel_runnable(self, engine, drive):
        seen = []

        def boom(_arg):
            raise RuntimeError("boom")

        handle = engine.call_later(1.0, boom)
        ev = engine.event()
        ev.callbacks.append(boom)
        ev._ok, ev._value = True, None
        engine.schedule(ev, 2.0)
        engine.call_later(3.0, seen.append, "after")
        last = engine.timeout(4.0)

        def go():
            if drive == "run":
                engine.run()
            elif drive == "deadline":
                engine.run(until=10.0)
            elif drive == "event":
                engine.run(until=last)
            else:  # one instant at a time, as the lifecycle tests step
                while engine.peek() != float("inf"):
                    engine.run(until=engine.peek())

        with pytest.raises(RuntimeError, match="boom"):
            go()  # the Deferred's function raises ...
        assert engine.now == 1.0
        assert engine._pool == [handle]  # ... after the handle was recycled
        assert handle.fn is None and handle.arg is None
        with pytest.raises(RuntimeError, match="boom"):
            go()  # the event callback raises
        assert engine.now == 2.0 and ev.processed
        go()
        assert seen == ["after"]
        assert engine.peek() == float("inf")


class TestBadDelayRejected:
    """A negative delay lies in the past.  NaN passes ``x < 0``; in the heap
    it breaks the time order (and the clock steps backwards), as a deadline
    it becomes the clock."""

    BAD = pytest.mark.parametrize("delay", [-1.0, float("nan")])

    @BAD
    def test_call_later(self, engine, delay):
        with pytest.raises(ValueError):
            engine.call_later(delay, lambda _: None)
        assert engine.peek() == float("inf")

    def test_timeout_nan(self, engine):  # -1.0: see TestTimeAdvance
        with pytest.raises(ValueError):
            engine.timeout(float("nan"))
        assert engine.peek() == float("inf")

    @BAD
    def test_schedule(self, engine, delay):
        with pytest.raises(ValueError):
            engine.schedule(engine.event(), delay)
        assert engine.peek() == float("inf")

    def test_run_until_nan(self, engine):
        engine.timeout(1.0)
        with pytest.raises(ValueError):
            engine.run(until=float("nan"))
        assert engine.now == 0.0

    def test_time_order_survives_a_refused_nan(self, engine):
        order = []
        for delay in (3.0, float("nan"), 1.0, 2.0, 0.5):
            try:
                engine.call_later(delay, order.append, delay)
            except ValueError:
                pass
        engine.run()
        assert order == [0.5, 1.0, 2.0, 3.0]


class TestKernelCounters:
    def test_entries_count_every_entry_made_cancelled_ones_too(self, engine):
        engine.timeout(1.0)                       # schedule
        engine.event().succeed()                  # schedule, now-queue
        engine.call_later(2.0, print).cancel()    # call_later, withdrawn
        engine.call_later(0.0, lambda _: None)    # call_later, now-queue
        assert engine.entries == 4
        engine.run()
        assert engine.entries == 4                # dispatch adds none

    def test_resumes_count_every_send_and_throw_routines_included(
            self, engine):
        def body():
            yield engine.timeout(1.0)
            try:
                yield engine.timeout(5.0)
            except Interrupt:
                pass

        proc = engine.process(body())
        engine.run(until=2.0)
        assert engine.resumes == 2                # start, after 1 s
        proc.interrupt()
        engine.run()
        assert engine.resumes == 3                # the throw
        def done():
            return "done"
            yield  # a generator that ends at once

        ended = []
        Routine(engine, done(), lambda *args: ended.append(args), None).start()
        assert engine.resumes == 4 and ended == [(None, True, "done")]


def test_only_user_drivers_and_the_kept_runtime_waits_start_processes():
    """A runtime wait is a timer or a callback.  What still starts a process
    under ``src/repro``: the service workers and user code: the
    experiments' client drivers and the package docstring's example.  A
    service's bootstrap and stop are landings, so
    ``core/service_manager.py`` starts none."""
    root = Path(__file__).resolve().parents[2] / "src" / "repro"
    sites = Counter(
        path.relative_to(root).as_posix()
        for path in root.rglob("*.py")
        for line in path.read_text().splitlines()
        if "engine.process(" in line)
    assert sites == {"core/service.py": 1, "analytics/experiments.py": 2,
                     "__init__.py": 1}
    assert sites["core/service_manager.py"] == 0
