"""Integration tests for realtime mode: real work on the worker pool."""

import threading
import time

import pytest

from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)


@pytest.fixture
def env():
    # Small factor: modeled delays (agent bootstrap ~2.5 sim-seconds) pass
    # quickly, while real worker-thread work still takes its natural time.
    with Session(mode="realtime", seed=2, realtime_factor=0.02) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="localhost", nodes=1, runtime_s=1e6))
        tmgr.add_pilots(pilot)
        yield session, tmgr


class TestRealtimeExecution:
    def test_function_task_runs_on_worker_thread(self, env):
        session, tmgr = env
        main_thread = threading.current_thread().name
        seen = {}

        def record_thread():
            seen["thread"] = threading.current_thread().name
            return 42

        (task,) = tmgr.submit_tasks(TaskDescription(function=record_thread))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.DONE
        assert task.result == 42
        assert seen["thread"] != main_thread

    def test_real_computation_result(self, env):
        session, tmgr = env

        def compute():
            import numpy as np
            return float(np.linalg.norm(np.ones(100)))

        (task,) = tmgr.submit_tasks(TaskDescription(function=compute))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.result == pytest.approx(10.0)

    def test_concurrent_tasks_overlap_in_wall_time(self, env):
        session, tmgr = env

        def sleepy():
            time.sleep(0.15)
            return time.monotonic()

        start = time.monotonic()
        tasks = tmgr.submit_tasks([
            TaskDescription(function=sleepy, cores_per_rank=1)
            for _ in range(4)])
        session.run(until=tmgr.wait_tasks(tasks))
        elapsed = time.monotonic() - start
        # 4 x 0.15 s sequential would be 0.6 s; overlap should beat that.
        assert elapsed < 0.55
        assert all(t.state == TaskState.DONE for t in tasks)

    def test_worker_exception_fails_task(self, env):
        session, tmgr = env

        def boom():
            raise ValueError("from worker thread")

        (task,) = tmgr.submit_tasks(TaskDescription(function=boom))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.FAILED
        assert isinstance(task.exception, ValueError)

    def test_cancel_while_the_worker_runs(self, env):
        """The worker cannot be stopped; its late completion must find the
        attempt gone and change nothing."""
        session, tmgr = env
        release = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            release.wait(timeout=5.0)
            return "late"

        (task,) = tmgr.submit_tasks(TaskDescription(function=blocked))
        while not started.is_set():
            session.run(until=session.now + 1.0)
        assert task.state == TaskState.AGENT_EXECUTING
        tmgr.cancel_tasks(task)
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.CANCELED
        (pilot,) = tmgr.pilots
        assert pilot.agent.scheduler.held_tasks == []
        assert pilot.agent.executor.executing_count == 0
        release.set()                         # the worker finishes now
        session.run(until=session.now + 5.0)  # its completion is injected
        assert task.state == TaskState.CANCELED
        assert task.result is None

    def test_run_until_a_deadline_returns_while_a_worker_runs(self, env):
        """A deadline run does not wait for the worker; a later run picks
        up its injected completion."""
        session, tmgr = env
        release = threading.Event()
        started = threading.Event()

        def blocked():
            started.set()
            release.wait(timeout=5.0)
            return "finished"

        (task,) = tmgr.submit_tasks(TaskDescription(function=blocked))
        while not started.is_set():
            session.run(until=session.now + 1.0)
        deadline = session.now + 5.0
        session.run(until=deadline)
        assert session.now == pytest.approx(deadline)
        assert task.state == TaskState.AGENT_EXECUTING
        release.set()
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.DONE
        assert task.result == "finished"


class TestRealtimeShutdown:
    def test_close_waits_for_a_running_worker(self):
        finished = threading.Event()
        started = threading.Event()

        def slow():
            started.set()
            time.sleep(0.3)
            finished.set()

        session = Session(mode="realtime", seed=2, realtime_factor=0.02)
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="localhost", nodes=1, runtime_s=1e6))
        tmgr.add_pilots(pilot)
        tmgr.submit_tasks(TaskDescription(function=slow))
        while not started.is_set():
            session.run(until=session.now + 1.0)
        assert not finished.is_set()
        session.close()
        assert finished.is_set()  # close returned only after the worker
        prefix = f"{session.uid}-worker"
        assert not [t for t in threading.enumerate()
                    if t.name.startswith(prefix)]
