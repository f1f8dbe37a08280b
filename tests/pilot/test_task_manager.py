"""End-to-end tests for task lifecycle through the TaskManager."""

import gc
import tracemalloc

import pytest

from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)
from repro.pilot.task import NO_SLOTS
from repro.pilot.task_manager import SubmissionWindow


@pytest.fixture
def env():
    with Session(seed=3) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e6))
        tmgr.add_pilots(pilot)
        yield session, pmgr, tmgr, pilot


class TestHappyPath:
    def test_executable_task_completes(self, env):
        session, _, tmgr, _ = env
        (task,) = tmgr.submit_tasks(
            TaskDescription(executable="/bin/sim", duration_s=10.0))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.DONE
        assert task.exit_code == 0
        assert task.runtime_s >= 10.0

    def test_function_task_returns_result(self, env):
        session, _, tmgr, _ = env
        (task,) = tmgr.submit_tasks(
            TaskDescription(function=lambda a, b: a + b, fn_args=(2, 3),
                            duration_s=1.0))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.DONE
        assert task.result == 5

    def test_many_tasks_share_pilot(self, env):
        session, _, tmgr, pilot = env
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=5.0,
                            cores_per_rank=1) for _ in range(100)])
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)
        # all slots returned
        assert pilot.nodes.total_free_cores == 128

    def test_concurrency_bounded_by_capacity(self, env):
        session, _, tmgr, _ = env
        # 128 cores; 64-core tasks -> 2 at a time.
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=10.0,
                            cores_per_rank=64) for _ in range(4)])
        session.run(until=tmgr.wait_tasks(tasks))
        stops = sorted(session.profiler.timestamp(t.uid, "exec_stop")
                       for t in tasks)
        # two waves: second wave strictly later than first
        assert stops[2] - stops[0] >= 10.0

    def test_task_with_staging(self, env):
        session, _, tmgr, _ = env
        (task,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=1.0,
            input_staging=[{"source": "in.dat", "target": "in.dat",
                            "size_bytes": int(1e9)}],
            output_staging=[{"source": "out.dat", "target": "out.dat",
                             "size_bytes": int(1e6)}]))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.DONE
        stage_in = session.profiler.duration(task.uid, "stage_in_start",
                                             "stage_in_stop")
        assert stage_in > 0.5  # 1 GB over ~1 GB/s WAN
        assert tmgr.data_manager.bytes_transferred == pytest.approx(1.001e9)

    def test_state_callbacks_fire_in_order(self, env):
        session, _, tmgr, _ = env
        seen = []
        tmgr.register_callback(lambda t, s: seen.append(s))
        (task,) = tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=1.0))
        session.run(until=tmgr.wait_tasks([task]))
        assert seen == [
            TaskState.TMGR_SCHEDULING, TaskState.AGENT_SCHEDULING,
            TaskState.AGENT_EXECUTING, TaskState.DONE]


class TestFailureAndCancel:
    def test_function_exception_fails_task(self, env):
        session, _, tmgr, pilot = env
        def boom():
            raise ValueError("bad input")
        (task,) = tmgr.submit_tasks(TaskDescription(function=boom))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.FAILED
        assert isinstance(task.exception, ValueError)
        assert pilot.nodes.total_free_cores == 128  # slots released

    def test_failure_does_not_affect_siblings(self, env):
        session, _, tmgr, _ = env
        def boom():
            raise RuntimeError("x")
        tasks = tmgr.submit_tasks([
            TaskDescription(function=boom),
            TaskDescription(executable="ok", duration_s=1.0),
        ])
        session.run(until=tmgr.wait_tasks(tasks))
        assert tasks[0].state == TaskState.FAILED
        assert tasks[1].state == TaskState.DONE

    def test_cancel_running_task(self, env):
        """An executable and a function task, each cancelled while its
        charge runs: the function already returned, but its result is only
        the task's once the charge has passed, so it never becomes one."""
        session, _, tmgr, pilot = env
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=1000.0),
            TaskDescription(function=lambda: "late", duration_s=1000.0)])
        session.run(until=10.0)
        assert [t.state for t in tasks] == [TaskState.AGENT_EXECUTING] * 2
        tmgr.cancel_tasks(tasks)
        session.run(until=tmgr.wait_tasks(tasks))
        assert [t.state for t in tasks] == [TaskState.CANCELED] * 2
        assert [t.result for t in tasks] == [None, None]
        assert session.now < 500.0
        assert pilot.agent.executor.executing_count == 0
        assert pilot.nodes.total_free_cores == 128

    def test_cancel_queued_task(self, env):
        session, _, tmgr, _ = env
        hog = tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=100.0,
                            cores_per_rank=64, ranks=2))
        (queued,) = tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=1.0,
                            cores_per_rank=64, ranks=2))
        session.run(until=10.0)
        tmgr.cancel_tasks(queued)
        session.run(until=tmgr.wait_tasks([queued]))
        assert queued.state == TaskState.CANCELED

    def test_cancel_finished_task_is_noop(self, env):
        session, _, tmgr, _ = env
        (task,) = tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=1.0))
        session.run(until=tmgr.wait_tasks([task]))
        tmgr.cancel_tasks(task)
        assert task.state == TaskState.DONE

    def test_pilot_death_cancels_tasks(self, env):
        session, pmgr, tmgr, pilot = env
        (task,) = tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=1e5))
        session.run(until=20.0)
        pmgr.cancel_pilots(pilot)
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.CANCELED

    @pytest.mark.parametrize("fault", [False, True])
    def test_interrupt_at_the_grant_instant_leaks_no_slots(self, fault):
        """A's release grants queued B; A's DONE callback then cancels (or
        faults) B in the same instant, so B's URGENT interruption overtakes
        its own grant event.  B must not keep the slots it never saw."""
        with Session(seed=3) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            tmgr.add_pilots(pilot)
            a, b = tmgr.submit_tasks([
                TaskDescription(executable="a", duration_s=10.0,
                                cores_per_rank=64),
                TaskDescription(executable="b", duration_s=10.0,
                                cores_per_rank=4)])

            def on_state(task, state):
                if task is a and state == TaskState.DONE:
                    assert b.state == TaskState.AGENT_SCHEDULING
                    if fault:
                        tmgr.fail_task(b, RuntimeError("node crash"))
                    else:
                        tmgr.cancel_tasks(b)

            tmgr.register_callback(on_state)
            session.run(until=tmgr.wait_tasks([a, b]))
            assert a.state == TaskState.DONE
            assert b.state == (TaskState.FAILED if fault
                               else TaskState.CANCELED)
            assert pilot.agent.scheduler.held_tasks == []
            assert pilot.nodes.total_free_cores == pilot.nodes.total_cores


    def test_raising_observer_leaks_no_slots(self):
        """A state callback that raises on AGENT_EXECUTING fails the
        attempt -- after the grant, so the slots must come back."""
        with Session(seed=3) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            tmgr.add_pilots(pilot)

            def observer(task, state):
                if state == TaskState.AGENT_EXECUTING:
                    raise RuntimeError("observer failed")

            tmgr.register_callback(observer)
            (task,) = tmgr.submit_tasks(TaskDescription(
                executable="x", duration_s=10.0, cores_per_rank=4))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED
            assert isinstance(task.exception, RuntimeError)
            assert task.slots is NO_SLOTS  # released: the shared empty tuple
            assert pilot.agent.scheduler.held_tasks == []
            assert pilot.nodes.total_free_cores == pilot.nodes.total_cores
            assert pilot.agent.executor.concurrent_launches == 0

    @pytest.mark.parametrize("final", TaskState.FINAL)
    def test_observer_raising_on_a_final_state_strands_nothing(self, final):
        """There is no attempt left to charge the exception to: the task
        completes all the same, ``run()`` raises once, the next drains."""
        with Session(seed=3) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            tmgr.add_pilots(pilot)
            session.run(until=pmgr.wait_active([pilot]))
            armed = [True]

            def observer(task, state):
                if armed[0] and state == final:
                    armed[0] = False
                    raise RuntimeError("observer failed")

            tmgr.register_callback(observer)
            first, second = tasks = tmgr.submit_tasks(
                [TaskDescription(executable="x", duration_s=1.0)] * 2)
            session.run(until=session.now + 0.5)  # both are launching
            if final == TaskState.FAILED:
                tmgr.fail_task(first, RuntimeError("node crash"))
            elif final == TaskState.CANCELED:
                tmgr.cancel_tasks(first)
            with pytest.raises(RuntimeError, match="observer failed"):
                session.run(until=tmgr.wait_tasks(tasks))
            assert first.state == final and first.completed.triggered
            session.run(until=tmgr.wait_tasks(tasks))
            assert second.state == TaskState.DONE
            assert pilot.agent.scheduler.held_tasks == []
            assert pilot.nodes.total_free_cores == pilot.nodes.total_cores
            assert tmgr._live_load(pilot) == 0

    def test_a_surfacing_observer_restarts_only_what_still_waits(self):
        """An exception surfacing from one task's start re-arms the rest of
        its batch; a task of that rest cancelled in the meantime stays
        cancelled (it was handed back to ``_begin`` and left CANCELED for
        TMGR_SCHEDULING: found by the task machine, one tier-1 run in a
        dozen)."""
        self.surfacing_observer_scenario(windowed=False)

    def test_a_surfacing_observer_in_a_windowed_chunk(self):
        """The same for a chunk a window admitted: the exception surfaces
        once per raise, the rest of the chunk still starts, the cancelled
        task is not restarted, and every window slot comes back."""
        self.surfacing_observer_scenario(windowed=True)

    def surfacing_observer_scenario(self, windowed):
        with Session(seed=3) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            tmgr.add_pilots(pilot)
            session.run(until=pmgr.wait_active([pilot]))
            raising = set()

            def observer(task, state):  # fails the start, then surfaces
                if task.uid in raising and state in (
                        TaskState.TMGR_SCHEDULING, TaskState.FAILED):
                    raise RuntimeError("observer failed")

            tmgr.register_callback(observer)
            window = SubmissionWindow(session.engine, 4)
            tasks = tmgr.submit_tasks(
                [TaskDescription(executable="x", duration_s=1.0)] * 4,
                **({"window": window, "chunk_size": 4} if windowed else {}))
            raising.update((tasks[0].uid, tasks[2].uid))
            tmgr.cancel_tasks(tasks[3])  # lands after the first start landing
            for _ in range(2):
                with pytest.raises(RuntimeError, match="observer failed"):
                    session.run(until=tmgr.wait_tasks(tasks))
            session.run(until=tmgr.wait_tasks(tasks))
            assert [t.state for t in tasks] == [
                TaskState.FAILED, TaskState.DONE, TaskState.FAILED,
                TaskState.CANCELED]
            assert pilot.agent.scheduler.held_tasks == []
            assert tmgr._live_load(pilot) == 0
            session.run(until=session.now + 1.0)  # the last completion lands
            assert window.in_flight == 0 and window.peak == 4 * windowed

    @pytest.mark.parametrize("fault", [False, True])
    @pytest.mark.parametrize("after_s, phase", [(0.5, "launch_start"),
                                                (5.0, "exec_start")])
    def test_interrupted_attempt_leaves_no_timer_behind(self, fault, after_s,
                                                        phase):
        """The launch / exec timer of an interrupted attempt is withdrawn:
        left in the queue it fires for nobody and still drags the clock to
        its deadline."""
        with Session(seed=3) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
            tmgr.add_pilots(pilot)
            session.run(until=pmgr.wait_active([pilot]))
            (task,) = tmgr.submit_tasks(
                TaskDescription(executable="x", duration_s=1000.0))
            interrupted_at = session.now + after_s
            session.run(until=interrupted_at)
            assert session.profiler.events(task.uid)[-1].event == phase
            if fault:
                tmgr.fail_task(task, RuntimeError("node crash"))
            else:
                tmgr.cancel_tasks(task)
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == (TaskState.FAILED if fault
                                  else TaskState.CANCELED)
            pmgr.cancel_pilots(pilot)
            session.run()  # drain: nothing of the task is left to fire
            assert session.now == interrupted_at
            assert pilot.agent.executor.concurrent_launches == 0
            assert pilot.agent.executor.executing_count == 0


class TestPilotSelection:
    def test_explicit_pilot_binding(self, env):
        session, pmgr, tmgr, pilot1 = env
        (pilot2,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1, runtime_s=1e6))
        tmgr.add_pilots(pilot2)
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=1.0,
                            pilot=pilot2.uid) for _ in range(4)])
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.pilot_uid == pilot2.uid for t in tasks)

    def test_unknown_pilot_binding_fails_task(self, env):
        session, _, tmgr, _ = env
        (task,) = tmgr.submit_tasks(
            TaskDescription(executable="x", pilot="pilot.9999"))
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.FAILED

    def test_round_robin_across_pilots(self, env):
        session, pmgr, tmgr, pilot1 = env
        (pilot2,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e6))
        tmgr.add_pilots(pilot2)
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=1.0)
            for _ in range(10)])
        session.run(until=tmgr.wait_tasks(tasks))
        used = {t.pilot_uid for t in tasks}
        assert used == {pilot1.uid, pilot2.uid}

    def test_no_pilots_fails_task(self):
        with Session() as session:
            tmgr = TaskManager(session)
            (task,) = tmgr.submit_tasks(TaskDescription(executable="x"))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED

    def test_counts_by_state(self, env):
        session, _, tmgr, _ = env
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=1.0)
            for _ in range(3)])
        session.run(until=tmgr.wait_tasks(tasks))
        assert tmgr.counts_by_state() == {TaskState.DONE: 3}


class TestStageOutOverlap:
    def test_slots_release_before_stage_out_finishes(self, env):
        """Stage-out must not hold compute hostage: a queued task starts
        executing while its predecessor is still staging results out."""
        session, _, tmgr, pilot = env
        (first,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=10.0, cores_per_rank=64, ranks=2,
            output_staging=[{"source": "big-result", "target": "out",
                             "size_bytes": int(100e9)}]))  # ~100 s WAN
        (second,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=1.0, cores_per_rank=64, ranks=2))
        session.run(until=tmgr.wait_tasks([first, second]))
        assert first.state == TaskState.DONE
        assert second.state == TaskState.DONE
        second_start = session.profiler.timestamp(second.uid, "exec_start")
        stage_out_stop = session.profiler.timestamp(first.uid,
                                                    "stage_out_stop")
        assert second_start < stage_out_stop
        assert pilot.nodes.total_free_cores == 128

    def test_slots_free_while_stage_out_in_flight(self, env):
        session, _, tmgr, pilot = env
        (task,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=1.0, cores_per_rank=64, ranks=2,
            output_staging=[{"source": "big-result", "target": "out",
                             "size_bytes": int(100e9)}]))
        session.run(until=30.0)  # past execution, inside stage-out
        assert task.state == TaskState.TMGR_STAGING_OUTPUT
        assert pilot.nodes.total_free_cores == 128
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.DONE


class TestStagingCancellation:
    def test_cancel_mid_stage_in_frees_the_link(self, env):
        """Cancelling a task aborts its in-flight transfers: the flow stops
        consuming the shared link instead of draining for hours."""
        session, _, tmgr, _ = env
        (task,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=1.0,
            input_staging=[{"source": "huge", "size_bytes": int(1e13)}]))
        session.run(until=20.0)
        assert task.state == TaskState.TMGR_STAGING_INPUT
        link = tmgr.data_manager.data.transfers.link("localhost", "delta")
        assert link.active_flows == 1
        tmgr.cancel_tasks(task)
        session.run(until=tmgr.wait_tasks([task]))
        assert task.state == TaskState.CANCELED
        assert link.active_flows == 0
        assert tmgr.data_manager.bytes_transferred == 0.0

    def test_dedup_rider_survives_owner_cancellation(self, env):
        """A task riding another task's in-flight transfer must not be
        dragged down when the owner is cancelled: it retries on its own."""
        session, _, tmgr, _ = env
        directive = {"source": "shared-dataset", "size_bytes": int(100e9)}
        (owner,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=1.0, input_staging=[directive]))
        (rider,) = tmgr.submit_tasks(TaskDescription(
            executable="x", duration_s=1.0, input_staging=[directive]))
        session.run(until=20.0)  # both inside stage-in, one real transfer
        assert tmgr.data_manager.cache_misses == 1
        tmgr.cancel_tasks(owner)
        session.run(until=tmgr.wait_tasks([owner, rider]))
        assert owner.state == TaskState.CANCELED
        assert rider.state == TaskState.DONE
        # the rider re-ran the transfer itself after the abort
        assert tmgr.data_manager.bytes_transferred == pytest.approx(100e9)


class TestDataAffinityPlacement:
    def make_env(self, data_config=None):
        from repro.pilot import PilotManager, PilotState, Session
        session = Session(seed=6, data_config=data_config)
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        pilots = pmgr.submit_pilots([
            PilotDescription(resource="delta", nodes=2, runtime_s=1e8),
            PilotDescription(resource="frontier", nodes=2, runtime_s=1e8)])
        tmgr.add_pilots(pilots)
        return session, tmgr, pilots

    @staticmethod
    def staged(source, size=int(10e9)):
        return TaskDescription(
            executable="x", duration_s=1.0,
            input_staging=[{"source": source, "size_bytes": size}])

    def test_task_follows_its_bytes(self):
        session, tmgr, pilots = self.make_env()
        with session:
            (first,) = tmgr.submit_tasks(self.staged("dataset/a"))
            session.run(until=tmgr.wait_tasks([first]))
            home = first.pilot_uid
            # repeats (within the affinity load slack) all land where the
            # data already sits
            repeats = tmgr.submit_tasks(
                [self.staged("dataset/a") for _ in range(6)])
            session.run(until=tmgr.wait_tasks(repeats))
            assert {t.pilot_uid for t in repeats} == {home}
            assert tmgr.affinity_placements >= 6
            assert tmgr.data_manager.cache_hits >= 6

    def test_largest_share_wins(self):
        session, tmgr, pilots = self.make_env()
        with session:
            (small,) = tmgr.submit_tasks(self.staged("small", int(1e9)))
            session.run(until=tmgr.wait_tasks([small]))
            (big,) = tmgr.submit_tasks(TaskDescription(
                executable="x", duration_s=1.0, pilot=self._other(
                    pilots, small.pilot_uid).uid,
                input_staging=[{"source": "big", "size_bytes": int(20e9)}]))
            session.run(until=tmgr.wait_tasks([big]))
            # a task needing both prefers the platform holding more bytes
            (both,) = tmgr.submit_tasks(TaskDescription(
                executable="x", duration_s=1.0,
                input_staging=[
                    {"source": "small", "size_bytes": int(1e9)},
                    {"source": "big", "size_bytes": int(20e9)}]))
            session.run(until=tmgr.wait_tasks([both]))
            assert both.pilot_uid == big.pilot_uid

    @staticmethod
    def _other(pilots, uid):
        return next(p for p in pilots if p.uid != uid)

    def test_no_staging_falls_back_to_round_robin(self):
        session, tmgr, pilots = self.make_env()
        with session:
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=1.0)
                for _ in range(10)])
            session.run(until=tmgr.wait_tasks(tasks))
            assert {t.pilot_uid for t in tasks} == {p.uid for p in pilots}
            assert tmgr.affinity_placements == 0

    def test_round_robin_placement_opt_out(self):
        from repro.data import DataConfig
        session, tmgr, pilots = self.make_env(
            data_config=DataConfig(placement="round_robin"))
        with session:
            (first,) = tmgr.submit_tasks(self.staged("dataset/a"))
            session.run(until=tmgr.wait_tasks([first]))
            repeats = tmgr.submit_tasks(
                [self.staged("dataset/a") for _ in range(10)])
            session.run(until=tmgr.wait_tasks(repeats))
            assert {t.pilot_uid for t in repeats} == {p.uid for p in pilots}
            assert tmgr.affinity_placements == 0

    def test_overloaded_preferred_pilot_yields(self, monkeypatch):
        from repro.pilot import task_manager
        monkeypatch.setattr(task_manager, "AFFINITY_LOAD_SLACK", 2)
        session, tmgr, pilots = self.make_env()
        with session:
            (first,) = tmgr.submit_tasks(self.staged("dataset/a"))
            session.run(until=tmgr.wait_tasks([first]))
            home = first.pilot_uid
            # pile long-running work onto the preferred pilot...
            hogs = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=1e6,
                                pilot=home) for _ in range(5)])
            session.run(until=session.now + 1.0)
            # ...so affinity yields to load and round-robin takes over
            spread = tmgr.submit_tasks(
                [self.staged("dataset/a") for _ in range(8)])
            session.run(until=session.now + 1.0)
            assert {t.pilot_uid for t in spread} == {p.uid for p in pilots}
            tmgr.cancel_tasks(hogs + spread)
            session.run(until=tmgr.wait_tasks())

    def test_invalid_placement_rejected(self):
        from repro.data import DataConfig
        with pytest.raises(ValueError, match="gravity"):
            DataConfig(placement="gravity")


class TestBulkSubmission:
    """The bulk path: batched uids, chunked driver spawn, same semantics."""

    def test_chunked_submission_completes_all(self, env):
        session, _, tmgr, _ = env
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=1.0)
             for _ in range(23)], chunk_size=5)
        assert len(tasks) == 23
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)

    def test_chunking_bounds_live_drivers(self, env):
        session, _, tmgr, pilot = env
        seen = []
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=10.0,
                             cores_per_rank=1)
             for _ in range(16)], chunk_size=4)

        def watch():
            if not pilot.is_active:
                yield pilot.became_active
            while any(not t.is_final for t in tasks):
                seen.append(pilot.agent.scheduler.queue_length
                            + len(pilot.agent.scheduler.held_tasks))
                yield session.engine.timeout(1.0)

        session.engine.process(watch())
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)
        # agent-side pressure never exceeds one chunk
        assert max(seen) <= 4

    def test_cancel_task_in_undriven_chunk(self, env):
        session, _, tmgr, _ = env
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=20.0,
                             cores_per_rank=64, ranks=2)  # one at a time
             for _ in range(6)], chunk_size=2)
        victim = tasks[5]  # sits in the last, undriven chunk
        tmgr.cancel_tasks(victim)
        session.run(until=tmgr.wait_tasks(tasks))
        assert victim.state == TaskState.CANCELED
        assert victim.runtime_s is None  # never executed
        done = [t for t in tasks if t.state == TaskState.DONE]
        assert len(done) == 5

    def test_a_chunk_starts_only_once_the_previous_one_completed(self, env):
        """Without a window, chunks are a strict barrier: no task of chunk
        k+1 is queued at the agent before the last task of chunk k is
        done, however their durations differ."""
        session, _, tmgr, _ = env
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=1.0 + i % 4)
             for i in range(12)], chunk_size=3)
        session.run(until=tmgr.wait_tasks(tasks))
        rows = [(r.uid, r.event) for r in session.profiler.events()]
        for lo in range(3, 12, 3):
            last_done = max(rows.index((t.uid, "state:DONE"))
                            for t in tasks[lo - 3:lo])
            first_queued = min(rows.index((t.uid, "state:AGENT_SCHEDULING"))
                               for t in tasks[lo:lo + 3])
            assert last_done < first_queued

    def test_a_cancelled_queued_chunk_is_skipped(self, env):
        session, _, tmgr, _ = env
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=10.0)
             for _ in range(6)], chunk_size=2)
        tmgr.cancel_tasks(tasks[2:4])          # the whole second chunk
        session.run(until=tmgr.wait_tasks(tasks))
        assert [t.state for t in tasks] == \
            [TaskState.DONE] * 2 + [TaskState.CANCELED] * 2 \
            + [TaskState.DONE] * 2
        assert all(t.runtime_s is None for t in tasks[2:4])
        queued = [r.uid for r in session.profiler.events()
                  if r.event == "state:AGENT_SCHEDULING"]
        assert queued == [t.uid for t in tasks[:2] + tasks[4:]]

    def test_windowed_feed_keeps_fifo_and_skips_the_cancelled(self, env):
        """Two submissions share a window of two: the second never overtakes
        the first, and a task cancelled while its chunk was queued at the
        window is neither started nor charged a slot."""
        session, _, tmgr, _ = env
        window = SubmissionWindow(session.engine, 2)
        first = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=10.0)
             for _ in range(4)], window=window, chunk_size=2)
        second = tmgr.submit_tasks(
            [TaskDescription(executable="y", duration_s=10.0)
             for _ in range(2)], window=window)
        assert [t.phase for t in first + second] == \
            ["starting"] * 2 + [None] * 4      # one chunk fits, at submit
        tmgr.cancel_tasks(first[3])            # queued at the window
        session.run(until=tmgr.wait_tasks(first + second))
        order = [r.uid for r in session.profiler.events()
                 if r.event == "state:TMGR_SCHEDULING"]
        assert order == [t.uid for t in first[:3] + second]
        assert first[3].state == TaskState.CANCELED
        assert first[3].runtime_s is None
        assert window.peak == 2
        session.run(until=session.now + 1.0)
        assert window.in_flight == 0 and not window._waiters

    def test_a_request_that_fits_still_queues_behind_one_that_does_not(
            self, env):
        """Strict FIFO: one slot is free, the queued burst needs two, a
        later single task would fit -- and waits its turn all the same."""
        session, _, tmgr, _ = env
        window = SubmissionWindow(session.engine, 2)

        def submit(n, **kwargs):
            return tmgr.submit_tasks(
                [TaskDescription(executable="x", duration_s=10.0)
                 for _ in range(n)], window=window, **kwargs)

        head, burst, single = submit(1), submit(2, chunk_size=2), submit(1)
        assert window.in_flight == 1 and len(window._waiters) == 2
        session.run(until=tmgr.wait_tasks(head + burst + single))
        order = [r.uid for r in session.profiler.events()
                 if r.event == "state:TMGR_SCHEDULING"]
        assert order == [t.uid for t in head + burst + single]
        assert window.peak == 2

    def test_a_long_run_of_cancelled_feeds_unwinds_without_recursion(
            self, env):
        """Each cancelled chunk hands its slot to the next feed queued at the
        window; thousands in a row must not nest a call per feed."""
        session, _, tmgr, _ = env
        window = SubmissionWindow(session.engine, 1)
        tasks = [tmgr.submit_tasks(
            TaskDescription(executable="x", duration_s=1.0),
            window=window)[0] for _ in range(3000)]
        tmgr.cancel_tasks(tasks[1:-1])
        session.run(until=tmgr.wait_tasks(tasks))
        assert [t.state for t in (tasks[0], tasks[-1])] == ["DONE", "DONE"]
        session.run(until=session.now + 1.0)
        assert window.in_flight == 0 and not window._waiters

    def test_a_crashed_windowed_feed_surfaces_from_run(self, env,
                                                       monkeypatch):
        """What a crashed feeder process did: the exception of a feed that
        breaks while a completion hands it the window comes out of run()."""
        session, _, tmgr, _ = env
        start, calls = tmgr._start, []

        def failing_start(tasks):
            calls.append(len(tasks))
            if len(calls) == 2:
                raise OSError("feed broke")
            start(tasks)

        monkeypatch.setattr(tmgr, "_start", failing_start)
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=5.0)
             for _ in range(3)], window=1)
        with pytest.raises(OSError, match="feed broke"):
            session.run(until=tmgr.wait_tasks(tasks))
        assert calls == [1, 1] and tasks[0].state == TaskState.DONE

    def test_bulk_uids_are_dense_and_ordered(self, env):
        _, _, tmgr, _ = env
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=1.0)
             for _ in range(5)])
        numbers = [int(t.uid.split(".")[1]) for t in tasks]
        assert numbers == list(range(numbers[0], numbers[0] + 5))

    def test_bad_chunk_size_rejected(self, env):
        _, _, tmgr, _ = env
        with pytest.raises(ValueError, match="chunk_size"):
            tmgr.submit_tasks(
                [TaskDescription(executable="x")], chunk_size=0)


def test_tasks_and_pilots_are_slotted(env):
    session, _, tmgr, pilot = env
    (task,) = tmgr.submit_tasks(TaskDescription(executable="x",
                                                duration_s=1.0))
    session.run(until=tmgr.wait_tasks([task]))
    for entity in (task, pilot):
        assert not hasattr(entity, "__dict__")
        with pytest.raises(AttributeError):
            entity.undeclared = 1
    assert task.slots is NO_SLOTS  # released: the shared empty tuple


class TestCompletionObserver:
    """``on_complete`` is one observer per ``submit_tasks`` call: it reads
    the task off the completion event instead of a closure per task."""

    @staticmethod
    def bytes_per_task(on_complete, n=2000):
        """Traced bytes per task that submitting *n* tasks (and waiting on
        them) holds, before anything runs."""
        with Session(seed=3) as session:
            tmgr = TaskManager(session)
            descriptions = [TaskDescription(executable="x")
                            for _ in range(n)]
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tasks = tmgr.submit_tasks(descriptions,
                                          on_complete=on_complete)
                done = tmgr.wait_tasks(tasks)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert done.callbacks is not None
            return held / n

    def test_on_complete_costs_at_most_a_list_slot_per_task(self):
        # a closure per task held about 250 B more (CPython 3.11)
        plain = self.bytes_per_task(None)
        observed = self.bytes_per_task(lambda task: None)
        assert observed - plain <= 8, (plain, observed)

    def test_on_complete_sees_each_task_once_whatever_its_end(self, env):
        session, _, tmgr, _ = env
        seen = []
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=1.0 + i)
             for i in range(4)], on_complete=seen.append)
        (observer,) = {t.completed.callbacks[0] for t in tasks}
        tmgr.cancel_tasks(tasks[3])
        session.run(until=tmgr.wait_tasks(tasks))
        assert sorted(seen, key=tasks.index) == tasks
        assert [t.state for t in tasks] == [TaskState.DONE] * 3 + \
            [TaskState.CANCELED]
