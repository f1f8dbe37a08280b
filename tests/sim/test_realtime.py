"""Tests for the wall-clock paced engine and cross-thread injection."""

import threading
import time

import pytest

from repro.sim import RealtimeEngine


class TestRealtimePacing:
    def test_factor_zero_runs_fast(self):
        engine = RealtimeEngine(factor=0.0)
        def proc():
            yield engine.timeout(1000.0)
            return "done"
        p = engine.process(proc())
        start = time.monotonic()
        assert engine.run(until=p) == "done"
        assert time.monotonic() - start < 1.0
        assert engine.now == 1000.0

    def test_small_factor_paces_wall_clock(self):
        engine = RealtimeEngine(factor=0.01)  # 10 ms per simulated second
        def proc():
            yield engine.timeout(10.0)  # ~100 ms wall
        engine.process(proc())
        start = time.monotonic()
        engine.run()
        elapsed = time.monotonic() - start
        assert elapsed >= 0.05  # paced, not instantaneous

    def test_negative_factor_rejected(self):
        with pytest.raises(ValueError):
            RealtimeEngine(factor=-1)


class TestThreadInjection:
    def test_external_thread_completes_event(self):
        engine = RealtimeEngine(factor=0.0)
        event = engine.event()

        def worker():
            time.sleep(0.05)
            engine.call_soon_threadsafe(event.succeed, "from-thread")

        def proc():
            value = yield event
            return value

        p = engine.process(proc())
        threading.Thread(target=worker, daemon=True).start()
        assert engine.run(until=p) == "from-thread"

    def test_many_injections_all_delivered(self):
        engine = RealtimeEngine(factor=0.0)
        results = []
        events = [engine.event() for _ in range(20)]

        def worker(i):
            engine.call_soon_threadsafe(events[i].succeed, i)

        def proc():
            for ev in events:
                results.append((yield ev))

        p = engine.process(proc())
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(20)]
        for t in threads:
            t.start()
        assert engine.run(until=p) is None
        assert sorted(results) == list(range(20))

    def test_injection_can_schedule_work(self):
        engine = RealtimeEngine(factor=0.0)
        done = engine.event()
        def late_proc():
            yield engine.timeout(5.0)
            done.succeed(engine.now)
        def start_proc():
            engine.process(late_proc())
        threading.Thread(
            target=lambda: (time.sleep(0.02),
                            engine.call_soon_threadsafe(start_proc)),
            daemon=True).start()
        assert engine.run(until=done) >= 5.0


class TestRunModes:
    """The paced engine runs through the same ``run()`` as the virtual one."""

    def test_failed_until_event_reraises(self):
        engine = RealtimeEngine(factor=0.0)
        event = engine.event()
        engine.call_later(1.0, lambda _: event.fail(KeyError("lost")))
        with pytest.raises(KeyError):
            engine.run(until=event)
        assert engine.now == 1.0

    def test_deadline_in_the_past_is_refused(self):
        engine = RealtimeEngine(factor=0.0)
        engine.run(until=5.0)
        assert engine.now == 5.0
        with pytest.raises(ValueError):
            engine.run(until=1.0)
