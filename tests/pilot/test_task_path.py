"""The task path end to end: what one plain task costs the kernel, that no
process runs on a task's behalf, and that a composed fault / retry / cancel
scenario leaves the same profile stream, row for row, as the per-task
driver processes did."""

from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)
from repro.resilience import NodeFailure, ResilienceConfig, RetryPolicy


def active_pilot(session, nodes=2):
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=nodes, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    session.run(until=pmgr.wait_active([pilot]))
    return pmgr, tmgr, pilot


# ---------------------------------------------------------------------------
# Event budget: grant + launch + exec + task.completed, and one start
# landing per submitted batch or admitted chunk
# ---------------------------------------------------------------------------

def engine_entries(n_tasks, monkeypatch, **submit_kwargs):
    """Kernel entries made, start landings among them, and generator
    resumes, by a bag of *n_tasks* plain executable tasks."""
    with Session(seed=5) as session:
        engine = session.engine
        _, tmgr, _ = active_pilot(session)
        starts = [0]
        start_batch = TaskManager._start_batch
        monkeypatch.setattr(TaskManager, "_start_batch", lambda self, tasks: (
            starts.__setitem__(0, starts[0] + 1), start_batch(self, tasks)))
        entries, resumes = engine.entries, engine.resumes
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=10.0)
             for _ in range(n_tasks)], **submit_kwargs)
        session.run(until=tmgr.wait_tasks(tasks))
        monkeypatch.undo()
        assert all(t.state == TaskState.DONE for t in tasks)
        return (engine.entries - entries, starts[0],
                engine.resumes - resumes)


def test_one_plain_task_costs_four_engine_entries(monkeypatch):
    few, few_starts, _ = engine_entries(50, monkeypatch)
    many, many_starts, resumes = engine_entries(100, monkeypatch)
    assert (many - few) / 50 == 4             # per-batch constants cancel
    assert few_starts == many_starts == 1     # one start landing per batch
    assert resumes == 0                       # nothing runs per task


def test_a_windowed_chunk_costs_its_start_landing_and_nothing_else(
        monkeypatch):
    plain, _, _ = engine_entries(64, monkeypatch)
    windowed, starts, resumes = engine_entries(64, monkeypatch, window=16,
                                               chunk_size=8)
    assert starts == 8                        # one per admitted chunk
    assert resumes == 0                       # no feeder process
    # beyond the plain bag: 7 more start landings.  The two chunks that
    # fit start inside submit_tasks; each of the other six is started by
    # the completion that frees its slots, inside that completion's own
    # entry -- no feeder start / end, no wake-up event
    assert windowed - plain == 7


# ---------------------------------------------------------------------------
# Bit-identity: one staged task, a node crash with a granted retry, a cancel
# while queued and a cancel during exec -- the parent commit's rows
# ---------------------------------------------------------------------------

#: (time, uid, event, component) of every task row, produced on the commit
#: before tasks became records
PROFILE_STREAM = [
    (1.8903760203477824, 'task.0000', 'state:TMGR_SCHEDULING', 'tmgr.0000'),
    (1.8903760203477824, 'task.0000', 'state:TMGR_STAGING_INPUT', 'tmgr.0000'),
    (1.8903760203477824, 'task.0000', 'stage_in_start', 'dmgr.0000'),
    (1.8903760203477824, 'task.0001', 'state:TMGR_SCHEDULING', 'tmgr.0000'),
    (1.8903760203477824, 'task.0001', 'state:AGENT_SCHEDULING', 'pilot.0000'),
    (1.8903760203477824, 'task.0001', 'schedule_ok', 'pilot.0000'),
    (1.8903760203477824, 'task.0002', 'state:TMGR_SCHEDULING', 'tmgr.0000'),
    (1.8903760203477824, 'task.0002', 'state:AGENT_SCHEDULING', 'pilot.0000'),
    (1.8903760203477824, 'task.0002', 'schedule_ok', 'pilot.0000'),
    (1.8903760203477824, 'task.0003', 'state:TMGR_SCHEDULING', 'tmgr.0000'),
    (1.8903760203477824, 'task.0003', 'state:AGENT_SCHEDULING', 'pilot.0000'),
    (1.8903760203477824, 'task.0004', 'state:TMGR_SCHEDULING', 'tmgr.0000'),
    (1.8903760203477824, 'task.0004', 'state:AGENT_SCHEDULING', 'pilot.0000'),
    (1.8903760203477824, 'task.0004', 'schedule_ok', 'pilot.0000'),
    (1.8903760203477824, 'task.0001', 'state:AGENT_EXECUTING', 'pilot.0000'),
    (1.8903760203477824, 'task.0001', 'launch_start', 'pilot.0000'),
    (1.8903760203477824, 'task.0002', 'state:AGENT_EXECUTING', 'pilot.0000'),
    (1.8903760203477824, 'task.0002', 'launch_start', 'pilot.0000'),
    (1.8903760203477824, 'task.0004', 'state:AGENT_EXECUTING', 'pilot.0000'),
    (1.8903760203477824, 'task.0004', 'launch_start', 'pilot.0000'),
    (2.8908988147983825, 'task.0000', 'stage_in_stop', 'dmgr.0000'),
    (2.8908988147983825, 'task.0000', 'state:AGENT_SCHEDULING', 'pilot.0000'),
    (2.8908988147983825, 'task.0000', 'schedule_ok', 'pilot.0000'),
    (2.8908988147983825, 'task.0000', 'state:AGENT_EXECUTING', 'pilot.0000'),
    (2.8908988147983825, 'task.0000', 'launch_start', 'pilot.0000'),
    (3.5866907055341755, 'task.0004', 'launch_stop', 'pilot.0000'),
    (3.7913826714892513, 'task.0001', 'launch_stop', 'pilot.0000'),
    (3.7913826714892513, 'task.0001', 'exec_start', 'pilot.0000'),
    (4.064250347436554, 'task.0002', 'launch_stop', 'pilot.0000'),
    (4.064250347436554, 'task.0002', 'exec_start', 'pilot.0000'),
    (4.586690705534176, 'task.0004', 'exec_start', 'pilot.0000'),
    (4.747574412593243, 'task.0000', 'launch_stop', 'pilot.0000'),
    (4.747574412593243, 'task.0000', 'exec_start', 'pilot.0000'),
    (6.890376020347782, 'task.0003', 'state:CANCELED', 'tmgr.0000'),
    (9.890376020347782, 'task.0004', 'exec_cancel', 'pilot.0000'),
    (9.890376020347782, 'task.0004', 'state:CANCELED', 'tmgr.0000'),
    (11.890376020347782, 'task.0001', 'exec_cancel', 'pilot.0000'),
    (11.890376020347782, 'task.0001', 'state:FAILED', 'tmgr.0000'),
    (14.160253377747438, 'task.0001', 'state:RESCHEDULING', 'tmgr.0000'),
    (14.160253377747438, 'task.0001', 'state:TMGR_SCHEDULING', 'tmgr.0000'),
    (14.160253377747438, 'task.0001', 'state:AGENT_SCHEDULING', 'pilot.0000'),
    (24.747574412593245, 'task.0000', 'exec_stop', 'pilot.0000'),
    (24.747574412593245, 'task.0000', 'state:TMGR_STAGING_OUTPUT', 'tmgr.0000'),
    (24.747574412593245, 'task.0000', 'stage_out_start', 'dmgr.0000'),
    (24.848021537679273, 'task.0000', 'stage_out_stop', 'dmgr.0000'),
    (24.848021537679273, 'task.0000', 'state:DONE', 'tmgr.0000'),
    (31.890376020347784, 'task.0001', 'schedule_ok', 'pilot.0000'),
    (31.890376020347784, 'task.0001', 'state:AGENT_EXECUTING', 'pilot.0000'),
    (31.890376020347784, 'task.0001', 'launch_start', 'pilot.0000'),
    (33.98059253771295, 'task.0001', 'launch_stop', 'pilot.0000'),
    (33.98059253771295, 'task.0001', 'exec_start', 'pilot.0000'),
    (54.064250347436555, 'task.0002', 'exec_stop', 'pilot.0000'),
    (54.064250347436555, 'task.0002', 'state:DONE', 'tmgr.0000'),
    (133.98059253771294, 'task.0001', 'exec_stop', 'pilot.0000'),
    (133.98059253771294, 'task.0001', 'state:DONE', 'tmgr.0000'),
]


def test_fault_retry_cancel_scenario_matches_the_parent_row_for_row():
    with Session(seed=7, resilience_config=ResilienceConfig(
            heartbeat_interval_s=1e6,
            retry=RetryPolicy(max_retries=2,
                              backoff_base_s=2.0))) as session:
        _, tmgr, pilot = active_pilot(session)
        t0 = session.now
        staged, victim, filler, queued, running = tmgr.submit_tasks([
            TaskDescription(executable="staged", cores_per_rank=4,
                            duration_s=20.0,
                            input_staging=[{"source": "in.dat",
                                            "size_bytes": 1e9}],
                            output_staging=[{"target": "out.dat",
                                             "size_bytes": 1e8}]),
            TaskDescription(executable="victim", cores_per_rank=64,
                            duration_s=100.0),
            TaskDescription(executable="filler", cores_per_rank=50,
                            duration_s=50.0),
            TaskDescription(executable="queued", cores_per_rank=60,
                            duration_s=10.0),
            TaskDescription(executable="running", cores_per_rank=2,
                            duration_s=1000.0, pre_exec_s=1.0)])
        session.run(until=t0 + 5.0)
        assert queued.state == TaskState.AGENT_SCHEDULING
        tmgr.cancel_tasks(queued)
        session.run(until=t0 + 8.0)
        assert running.state == TaskState.AGENT_EXECUTING
        tmgr.cancel_tasks(running)
        session.run(until=t0 + 10.0)
        node = pilot.nodes[victim.slots[0].node_index]
        node.mark_down()
        for uid in pilot.agent.scheduler.held_on_node(node.index):
            tmgr.fail_task(tmgr.get(uid), NodeFailure(node.name, pilot.uid))
        session.run(until=t0 + 30.0)
        node.mark_up()
        pilot.agent.scheduler.kick()
        session.run(until=tmgr.wait_tasks())

        assert [t.state for t in (staged, victim, filler, queued, running)] \
            == ["DONE", "DONE", "DONE", "CANCELED", "CANCELED"]
        assert victim.attempts == 2
        assert session.resilience.recovery.retries_granted == 1
        assert [(r.time, r.uid, r.event, r.component)
                for r in session.profiler.events()
                if r.uid.startswith("task.")] == PROFILE_STREAM
