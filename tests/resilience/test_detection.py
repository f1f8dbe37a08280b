"""Heartbeat-based failure detection: leases, expiry, pilot liveness."""

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.comm.message import Address
from repro.pilot.states import PilotState
from repro.resilience import LEASE_MISSES, RetryPolicy, heartbeat_topic


def resilient_session(**kwargs):
    defaults = dict(heartbeat_interval_s=2.0, retry=None)
    defaults.update(kwargs)
    return Session(seed=3, resilience_config=ResilienceConfig(**defaults))


class TestMonitorLeases:
    def test_lease_stays_live_while_beats_arrive(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("svc.x", interval_s=1.0, misses=3)
            sender = Address(name="svc.x.hb", platform="localhost")

            def beater():
                for _ in range(20):
                    session.bus.publish(heartbeat_topic("svc.x"),
                                        {"t": session.now}, sender=sender)
                    yield session.engine.timeout(1.0)

            session.engine.process(beater())
            session.run(until=15.0)
            assert not lease.expired
            assert lease.beats >= 10
            assert lease.is_alive and monitor.lease("svc.x") is lease

    def test_silence_expires_lease_after_misses_times_interval(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("svc.y", interval_s=1.0, misses=3)
            session.run(until=lease.declared)
            assert lease.expired
            assert session.now == pytest.approx(3.0)
            (record,) = monitor.detections
            assert record.uid == "svc.y"
            assert record.silence_s == pytest.approx(3.0)

    def test_beats_rearm_the_lease(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("svc.z", interval_s=1.0, misses=2)
            sender = Address(name="svc.z.hb", platform="localhost")

            def beat_then_die():
                for _ in range(5):
                    session.bus.publish(heartbeat_topic("svc.z"),
                                        {}, sender=sender)
                    yield session.engine.timeout(1.0)

            session.engine.process(beat_then_die())
            session.run(until=lease.declared)
            # last beat ~t=4: declaration at ~4 + misses * interval
            assert session.now == pytest.approx(6.0, abs=0.1)

    def test_deregister_suppresses_declaration(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("svc.bye", interval_s=1.0, misses=2)
            monitor.deregister("svc.bye")
            session.run()
            assert not lease.expired
            assert monitor.detections == []

    def test_deregister_withdraws_the_timer_and_the_subscription(self):
        """The lease used to stay armed: peek() said 30.0, a following
        run() dragged the clock there, and the subscription stayed
        attached until then."""
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("e1", 10.0, 3)
            assert lease.is_alive and session.engine.peek() == 30.0
            session.run(until=5.0)
            monitor.deregister("e1")
            assert session.engine.peek() == float("inf")
            assert not any(session.bus._subs.values())
            assert not lease.is_alive and lease.deregistered
            session.run()
            assert session.now == 5.0
            assert not lease.expired and monitor.detections == []

    def test_beat_on_the_wire_to_a_stopped_lease_is_dropped(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("e2", 10.0, 3)
            session.bus.publish(heartbeat_topic("e2"), {}, sender=Address(
                name="e2.hb", platform="delta"))
            monitor.deregister("e2")
            session.run()
            assert lease.beats == 0
            bus = session.bus
            assert (bus.sent_count, bus.delivered_count,
                    bus.dropped_count) == (1, 0, 1)

    def test_lease_watched_after_quiesce_is_stopped_at_once(self):
        with resilient_session() as session:
            session.quiesce()
            lease = session.resilience.monitor.watch("late", 10.0, 3)
            assert not lease.is_alive and lease.deregistered
            assert session.engine.peek() == float("inf")
            assert not any(session.bus._subs.values())

    def test_quiesce_stops_an_armed_lease_without_a_declaration(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            lease = monitor.watch("svc.q", 10.0, 3)
            session.run(until=1.0)
            session.quiesce()
            assert session.engine.peek() == float("inf") and not lease.is_alive
            lease.interrupt("again")          # idempotent, like a process
            session.run()
            assert session.now == 1.0 and monitor.detections == []

    def test_watch_is_idempotent(self):
        with resilient_session() as session:
            monitor = session.resilience.monitor
            first = monitor.watch("svc.a", interval_s=1.0)
            assert monitor.watch("svc.a", interval_s=9.0) is first


class TestPilotLiveness:
    def test_active_pilot_heartbeats_keep_lease_alive(self):
        with resilient_session() as session:
            pmgr = PilotManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=500.0))
            session.run(until=100.0)
            assert pilot.is_active
            lease = session.resilience.monitor.lease(pilot.uid)
            assert lease.is_alive and not lease.expired
            assert session.resilience.monitor.detections == []

    def test_walltime_kill_is_detected_via_lease_expiry(self):
        with resilient_session() as session:
            pmgr = PilotManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=60.0))
            lease_event = None
            session.run(until=30.0)
            lease_event = session.resilience.monitor.declared(pilot.uid)
            session.run(until=lease_event)
            assert pilot.state == PilotState.FAILED
            (record,) = session.resilience.monitor.detections
            # silence spans at most interval + misses * interval
            interval = session.resilience.config.heartbeat_interval_s
            assert record.silence_s <= \
                (LEASE_MISSES + 1) * interval + 1e-6
            assert record.declared_at > 60.0  # observed *after* the death

    def test_orderly_pilot_completion_never_declares(self):
        with resilient_session() as session:
            pmgr = PilotManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            session.run(until=20.0)
            session.batch_system(pilot.platform.name).complete(pilot.batch_job)
            session.run()
            assert pilot.state == PilotState.DONE
            assert session.resilience.monitor.detections == []

    def test_recovery_acts_only_after_declaration(self):
        """The retry of a pilot-lost task resumes at/after lease expiry."""
        from repro.resilience import PilotResubmitPolicy

        with resilient_session(
                retry=RetryPolicy(max_retries=1, backoff_base_s=0.5),
                pilot_resubmit=PilotResubmitPolicy(max_resubmits=1),
        ) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            tmgr.add_pilots(pilot)
            (task,) = tmgr.submit_tasks(
                TaskDescription(executable="x", duration_s=500.0))
            session.run(until=30.0)
            # system-side kill: the client only learns via silence
            session.batch_system("delta").fail(pilot.batch_job)
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == "DONE"
            assert task.attempts == 2
            (detection,) = [d for d in session.resilience.monitor.detections
                            if d.uid == pilot.uid]
            (recovery,) = session.resilience.recovery.records
            assert recovery.resumed_at >= detection.declared_at
            # and the replacement pilot came through the batch queue
            assert len(session.resilience.recovery.resubmissions) == 1
