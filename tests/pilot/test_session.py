"""Tests for session wiring."""

import numpy as np
import pytest

from repro.pilot import Session
from repro.sim import SimulationEngine


class TestSession:
    def test_virtual_mode_default(self):
        with Session() as session:
            assert type(session.engine) is SimulationEngine

    def test_default_platforms_registered(self):
        with Session() as session:
            for name in ("frontier", "delta", "r3", "localhost"):
                assert session.platform(name).name == name

    def test_platform_subset(self):
        with Session(platforms=["delta"]) as session:
            session.platform("delta")
            with pytest.raises(KeyError, match="not attached"):
                session.platform("frontier")

    def test_batch_system_lazy_and_cached(self):
        with Session() as session:
            b1 = session.batch_system("delta")
            b2 = session.batch_system("delta")
            assert b1 is b2

    def test_rng_deterministic_across_sessions(self):
        with Session(seed=42) as s1, Session(seed=42) as s2:
            a = s1.rng("x").random(4)
            b = s2.rng("x").random(4)
            assert np.array_equal(a, b)

    def test_run_advances_time(self):
        with Session() as session:
            session.engine.timeout(5.0)
            session.run()
            assert session.now == 5.0

    def test_close_idempotent(self):
        session = Session()
        session.close()
        session.close()
        assert session.closed

    def test_use_after_close_raises_and_reading_keeps_working(self):
        """At the parent a task submitted after close() ran to DONE and
        dragged the clock to the pilot's walltime; run() returned None.
        start_remote() and start_autoscaler() once handed back a live
        handle and queued its driver (the autoscaler armed its ticker)."""
        from repro import (PilotDescription, PilotManager,
                           ServiceDescription, ServiceManager,
                           TaskDescription, TaskManager)

        session = Session(seed=3)
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        smgr = ServiceManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1, runtime_s=3600.0))
        tmgr.add_pilots(pilot)
        (task,) = tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=1.0))
        session.run(until=task.completed)
        closed_at = session.now
        session.close()
        session.close()  # a second close() stays a no-op

        for call in (
                session.run,
                lambda: session.run(until=closed_at + 1.0),
                lambda: tmgr.submit_tasks(TaskDescription(executable="y")),
                lambda: pmgr.submit_pilots(
                    PilotDescription(resource="delta", nodes=1)),
                lambda: smgr.start_services(
                    ServiceDescription(model="noop"), pilot),
                lambda: smgr.start_remote(
                    ServiceDescription(model="noop"), "r3"),
                lambda: smgr.start_autoscaler(
                    ServiceDescription(model="noop"),
                    remote_platform="r3")):
            with pytest.raises(RuntimeError, match="^session is closed$"):
                call()
        # nothing was started, the clock did not move, reading still works
        assert session.now == closed_at
        assert [t.uid for t in tmgr.tasks] == [task.uid]
        assert len(pmgr.pilots) == 1 and smgr.services == []
        assert task.state == "DONE"
        assert session.profiler.timestamp(task.uid, "state:DONE") \
            == closed_at

    def test_unique_uids(self):
        with Session() as s1, Session() as s2:
            # ids are per-session registries; sessions share global prefix
            assert s1.ids.generate("task") == "task.0000"
            assert s2.ids.generate("task") == "task.0000"

    def test_same_seed_twice_in_one_process_names_everything_alike(self):
        """Job uids and anonymous socket names used to come from
        process-global counters: the second run said job.0001 and
        client-sock.0001 where the first said .0000."""
        from repro import (PilotDescription, PilotManager, ServiceClient,
                           ServiceDescription, ServiceManager,
                           TaskDescription, TaskManager)

        def run():
            with Session(seed=0) as session:
                pmgr = PilotManager(session)
                tmgr = TaskManager(session)
                smgr = ServiceManager(session, registry_platform="delta")
                pilots = pmgr.submit_pilots(
                    [PilotDescription(resource="delta", nodes=1,
                                      runtime_s=600.0) for _ in range(2)])
                tmgr.add_pilots(pilots)
                tasks = tmgr.submit_tasks(
                    [TaskDescription(executable="x", duration_s=2.0)
                     for _ in range(4)])
                handle = smgr.start_remote(
                    ServiceDescription(model="noop"), platform="r3")
                session.run(until=handle.ready)
                clients = [ServiceClient(session, platform="delta")
                           for _ in range(2)]
                work = [session.engine.process(
                    c.run_workload([handle.address], 3)) for c in clients]
                session.run(until=session.engine.all_of(
                    work + [tmgr.wait_tasks(tasks)]))
                return ([p.batch_job.uid for p in pilots],
                        [session.bus.connect("delta").address.name
                         for _ in range(2)],
                        [tuple(row) for row in session.profiler.events()])

        first, second = run(), run()
        assert first[0] == ["job.0000", "job.0001"]
        assert first[1] == ["client-sock.0000", "client-sock.0001"]
        assert len(first[2]) > 40
        assert second == first


class TestQuiesce:
    """Session-scoped stop signal: run() drains with resilience live."""

    def _campaign(self):
        from repro.pilot import (PilotDescription, PilotManager,
                                 TaskDescription, TaskManager)
        from repro.resilience import ResilienceConfig

        session = Session(
            seed=7, resilience_config=ResilienceConfig(
                heartbeat_interval_s=2.0))
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=5.0)
            for _ in range(4)])
        return session, tmgr, tasks

    def test_quiesce_lets_run_drain(self):
        session, tmgr, tasks = self._campaign()
        with session:
            session.run(until=tmgr.wait_tasks(tasks))
            assert all(t.state == "DONE" for t in tasks)
            t_done = session.now
            session.quiesce()
            session.run()  # would loop heartbeats forever without quiesce
            assert session.quiescing
            # drained soon after: no further heartbeat re-arming; only the
            # already-scheduled walltime/batch events remain to flush
            assert session.engine.peek() == float("inf")
            assert t_done <= session.now

    def test_quiesce_declares_no_false_failures(self):
        session, tmgr, tasks = self._campaign()
        with session:
            session.run(until=tmgr.wait_tasks(tasks))
            session.quiesce()
            session.run()
            monitor = session.resilience.monitor
            assert monitor.detections == []

    def test_quiesce_idempotent_and_preserves_results(self):
        session, tmgr, tasks = self._campaign()
        with session:
            session.run(until=tmgr.wait_tasks(tasks))
            session.quiesce()
            session.quiesce()
            session.run()
            assert all(t.state == "DONE" for t in tasks)

    def test_daemon_added_after_quiesce_is_stopped_immediately(self):
        # a pilot activating during the final drain must not re-arm
        # heartbeats that quiesce can no longer reach
        with Session() as session:
            session.quiesce()
            beats = []

            def late_daemon():
                from repro.sim.events import Interrupt
                try:
                    while True:
                        beats.append(session.now)
                        yield session.engine.timeout(5.0)
                except Interrupt:
                    return

            session.add_daemon(session.engine.process(late_daemon()))
            session.run()
            assert session.engine.peek() == float("inf")
            assert len(beats) <= 1  # interrupted before re-arming

    def test_quiesce_cancels_armed_lease_timers(self):
        # the watchdog's pending lease timer must not drag the drained
        # clock forward by interval*misses
        from repro.resilience import ResilienceConfig

        session = Session(
            seed=1, resilience_config=ResilienceConfig(
                heartbeat_interval_s=100.0))
        with session:
            monitor = session.resilience.monitor
            monitor.watch("svc.test", interval_s=100.0, misses=3)
            session.run(until=1.0)
            session.quiesce()
            session.run()
            # without the cancel, the drain would advance to t=300
            assert session.now < 100.0
            assert monitor.detections == []

    def test_quiesce_cancels_armed_fault_timers(self):
        # interrupted fault loops must not leave their (possibly huge)
        # MTBF timers in the heap, or the drain drags the clock to them
        from repro.pilot import (PilotDescription, PilotManager,
                                 TaskDescription, TaskManager)
        from repro.resilience import FaultModel, ResilienceConfig

        config = ResilienceConfig(
            heartbeat_interval_s=2.0,
            faults=FaultModel(node_mtbf_s=1e6, node_mttr_s=60.0))
        with Session(seed=13, resilience_config=config) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(PilotDescription(
                resource="delta", nodes=2, runtime_s=500.0))
            tmgr.add_pilots(pilot)
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=5.0)
                for _ in range(3)])
            session.run(until=tmgr.wait_tasks(tasks))
            session.quiesce()
            session.run()
            # drain flushes the 500s walltime, never the ~1e6s MTBF draw
            assert session.engine.peek() == float("inf")
            assert session.now <= 600.0
