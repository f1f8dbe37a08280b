"""Recovery policies: retry with backoff, blacklists, pilot resubmission."""

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.pilot.states import PilotState, StateError, TaskState
from repro.resilience import (
    NodeFailure,
    PilotResubmitPolicy,
    RetryPolicy,
    failure_counts,
    recovery,
)


def make_session(retry=None, resubmit=None, seed=2):
    return Session(seed=seed, resilience_config=ResilienceConfig(
        heartbeat_interval_s=2.0, retry=retry, pilot_resubmit=resubmit))


def one_pilot(session, nodes=1, runtime_s=1e9):
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=nodes,
                         runtime_s=runtime_s))
    tmgr.add_pilots(pilot)
    return pmgr, tmgr, pilot


class TestRetryPolicy:
    def test_transient_function_failure_retries_to_success(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "ok"

        with make_session(retry=RetryPolicy(max_retries=2,
                                            backoff_base_s=1.0)) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(TaskDescription(function=flaky))
            states = []
            task.on_state(lambda t, s: states.append(s))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.DONE
            assert task.result == "ok"
            assert task.attempts == 3
            # the enforced recovery path went through FAILED -> RESCHEDULING
            assert states.count(TaskState.FAILED) == 2
            assert states.count(TaskState.RESCHEDULING) == 2
            assert len(task.failures) == 2
            assert failure_counts([task]) == {"executor:RuntimeError": 2}
            assert session.resilience.recovery.retries_granted == 2

    def test_retries_exhaust_and_seal_failed(self):
        def always_broken():
            raise ValueError("deterministic bug")

        with make_session(retry=RetryPolicy(max_retries=2,
                                            backoff_base_s=0.5)) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(
                TaskDescription(function=always_broken))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED
            assert task.completed.triggered
            assert task.attempts == 3          # 1 + max_retries
            assert len(task.failures) == 3
            assert task.uid in session.resilience.recovery.gave_up

    def test_backoff_delays_grow_between_attempts(self, monkeypatch):
        monkeypatch.setattr(recovery, "BACKOFF_JITTER_S", 0.0)
        times = []

        def flaky():
            times.append(None)
            raise RuntimeError("x")

        with make_session(retry=RetryPolicy(
                max_retries=2, backoff_base_s=4.0)) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(TaskDescription(function=flaky))
            session.run(until=tmgr.wait_tasks([task]))
            latencies = session.resilience.recovery.recovery_latencies()
            assert len(latencies) == 2
            # 4s then 8s of backoff (no jitter)
            assert latencies[0] == pytest.approx(4.0)
            assert latencies[1] == pytest.approx(8.0)

    def test_without_resilience_failures_stay_terminal(self):
        def boom():
            raise RuntimeError("x")

        with Session(seed=2) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(TaskDescription(function=boom))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED
            assert task.attempts == 1
            # structured reason is attached even without recovery
            assert task.failure.origin == "executor"

    def test_binding_errors_are_not_retried(self):
        with make_session(retry=RetryPolicy(max_retries=3)) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(
                TaskDescription(executable="x", pilot="pilot.9999"))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED
            assert task.attempts == 1
            assert task.failure.origin == "binding"

    def test_cancel_during_backoff_seals_failed(self):
        def boom():
            raise RuntimeError("x")

        with make_session(retry=RetryPolicy(
                max_retries=3, backoff_base_s=100.0)) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(TaskDescription(function=boom))
            session.run(until=5.0)
            assert task.state == TaskState.FAILED
            assert not task.completed.triggered   # recovery pending
            tmgr.cancel_tasks(task)
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED
            assert task.completed.triggered

    def test_injected_node_failure_rebinds_and_avoids_node(self):
        with make_session(retry=RetryPolicy(
                max_retries=2, backoff_base_s=1.0)) as session:
            _, tmgr, pilot = one_pilot(session, nodes=2)
            (task,) = tmgr.submit_tasks(
                TaskDescription(executable="x", duration_s=60.0,
                                cores_per_rank=4))
            session.run(until=10.0)
            node = pilot.nodes[task.slots[0].node_index]
            node.mark_down()
            tmgr.fail_task(task, NodeFailure(node.name, pilot.uid))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.DONE
            assert task.attempts == 2
            assert node.name in task.avoid_nodes
            assert node.name in \
                session.resilience.recovery.blacklisted_nodes
            # the retry landed on the surviving node
            assert task.failures[0].origin == "node"


class TestAvoidNodes:
    def test_affinity_preference_respects_avoided_nodes(self):
        """A data-affinity hint must not steer a retry back onto the node
        that just crashed under it (soft preference loses to the
        blacklist; other nodes fit)."""
        from repro.hpc import NodeList
        from repro.pilot.agent.scheduler import AgentScheduler
        from repro.pilot.task import Task

        with Session(seed=1) as session:
            nodes = NodeList.build(2, 8, 0, 64.0, name_prefix="n")
            sched = AgentScheduler(session, nodes, "pilot.x")
            first = Task(session, TaskDescription(executable="x"), "t0")
            first.affinity_key = "hot-object"
            sched.schedule(first, lambda task: None)
            session.run()
            hot_index = first.slots[0].node_index
            sched.release(first)
            retry = Task(session, TaskDescription(executable="x"), "t1")
            retry.affinity_key = "hot-object"
            retry.avoid_nodes = {nodes[hot_index].name}
            sched.schedule(retry, lambda task: None)
            session.run()
            assert retry.slots[0].node_index != hot_index


class TestPilotResubmission:
    def test_walltime_expiry_resubmits_and_finishes_workload(self):
        with make_session(
                retry=RetryPolicy(max_retries=2, backoff_base_s=1.0),
                resubmit=PilotResubmitPolicy(max_resubmits=1)) as session:
            pmgr, tmgr, pilot = one_pilot(session, runtime_s=120.0)
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=90.0,
                                cores_per_rank=16)
                for _ in range(8)])  # 2 waves on 64 cores: walltime kills wave 2
            session.run(until=tmgr.wait_tasks(tasks))
            assert all(t.state == TaskState.DONE for t in tasks)
            assert len(session.resilience.recovery.resubmissions) == 1
            dead, replacement, at = \
                session.resilience.recovery.resubmissions[0]
            assert dead == pilot.uid
            assert pilot.uid in session.resilience.recovery.blacklisted_pilots
            # replacement pilot is attached and did real work
            retried = [t for t in tasks if t.attempts > 1]
            assert retried
            assert all(t.pilot_uid == replacement for t in retried)

    def test_resubmission_budget_is_bounded(self):
        with make_session(
                retry=RetryPolicy(max_retries=5, backoff_base_s=1.0,
                                  rebind_wait_s=200.0),
                resubmit=PilotResubmitPolicy(max_resubmits=1)) as session:
            pmgr, tmgr, pilot = one_pilot(session, runtime_s=100.0)
            # workload that cannot finish within any single walltime
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=80.0,
                                cores_per_rank=64)
                for _ in range(4)])
            session.run(until=tmgr.wait_tasks(tasks))
            # one resubmission happened, then the budget stopped the churn
            assert len(session.resilience.recovery.resubmissions) == 1
            assert any(t.state == TaskState.FAILED for t in tasks)


class TestStateModelEdges:
    def test_failed_to_rescheduling_is_legal(self):
        from repro.pilot.states import TASK_MODEL

        TASK_MODEL.check(TaskState.FAILED, TaskState.RESCHEDULING)
        TASK_MODEL.check(TaskState.RESCHEDULING, TaskState.TMGR_SCHEDULING)

    def test_done_and_canceled_stay_absorbing(self):
        from repro.pilot.states import TASK_MODEL

        for final in (TaskState.DONE, TaskState.CANCELED):
            with pytest.raises(StateError):
                TASK_MODEL.check(final, TaskState.RESCHEDULING)

    def test_rescheduling_cannot_shortcut_to_executing(self):
        from repro.pilot.states import TASK_MODEL

        with pytest.raises(StateError):
            TASK_MODEL.check(TaskState.RESCHEDULING,
                             TaskState.AGENT_EXECUTING)
