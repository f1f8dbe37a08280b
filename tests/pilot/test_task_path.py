"""The task path end to end: what one plain task costs the kernel, that no
process runs on a task's behalf, and that a composed fault / retry / cancel
scenario leaves the same profile stream, row for row, as the per-task
driver processes did.

``data/parent_task_waits.json`` was written by running this file as a
script on the commit where pilot binding, staging and the retry plan were
still generators run as ``Routine``s.  The waits scenario below has to
reproduce it exactly.
"""

import json
import signal
import sys
from pathlib import Path

import pytest

from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)
from repro.resilience import (
    FaultModel,
    NodeFailure,
    ResilienceConfig,
    RetryPolicy,
)

GOLDEN = Path(__file__).parent / "data" / "parent_task_waits.json"

#: wall-clock seconds a test here may take: each takes well under one, but
#: a task stranded in a wait never lets ``run(until=wait_tasks(...))``
#: return while heartbeats keep the engine busy
WALL_LIMIT_S = 60


@pytest.fixture(autouse=True)
def wall_clock_guard(request):
    """Fail a test that outlives :data:`WALL_LIMIT_S` instead of hanging
    the suite.  A process-wide ``SIGALRM`` timer, so the engine (its
    ``entries``, the goldens) sees nothing of it; where there is no
    ``SIGALRM`` the test runs unguarded."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def overran(signum, frame):
        pytest.fail(f"{request.node.name} ran over {WALL_LIMIT_S} s of wall "
                    f"time: a task stranded in a wait?", pytrace=False)

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, WALL_LIMIT_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


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


def python_calls(n_tasks):
    """Python calls (``sys.setprofile`` ``call`` events) a bag of *n_tasks*
    one-core executable tasks makes from submission to drain on one
    64-core node: every task after the first 64 waits in the scheduler's
    queue and is granted by a release."""
    with Session(seed=5) as session:
        _, tmgr, _ = active_pilot(session, nodes=1)
        descriptions = [TaskDescription(executable="x", duration_s=10.0)
                        for _ in range(n_tasks)]
        calls = [0]

        def count(frame, event, arg):
            if event == "call":
                calls[0] += 1

        sys.setprofile(count)
        try:
            tasks = tmgr.submit_tasks(descriptions)
            session.run(until=tmgr.wait_tasks(tasks))
        finally:
            sys.setprofile(None)
        assert all(t.state == TaskState.DONE for t in tasks)
        return calls[0]


#: Python calls per queued plain task, read as 55.0: 57.0 while a slot was
#: made through its NamedTuple ``__new__`` and a task entered its base's
#: ``__init__``, 82.0 before a node change flipped only the fit bits that
#: moved, the grant pass read its masks once and the queues became FIFOs
#: per priority
QUEUED_TASK_CALLS = 55.5


def test_a_queued_plain_task_costs_at_most_N_python_calls():
    few, many = python_calls(500), python_calls(1_000)
    per_task = (many - few) / 500              # per-bag constants cancel
    assert per_task <= QUEUED_TASK_CALLS, per_task


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


def test_a_bound_staged_or_retried_task_resumes_no_generator():
    """Binding on a pending pilot, a staging fan-out and a retry plan are
    landings: none of them resumes a generator."""
    with Session(seed=5, resilience_config=ResilienceConfig(
            retry=RetryPolicy(max_retries=1, backoff_base_s=1.0))) as session:
        engine = session.engine
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        resumes = engine.resumes
        bound, staged_task, retried = tmgr.submit_tasks([
            TaskDescription(executable="bound", duration_s=10.0),
            staged("staged", "in.dat", out="out.dat"),
            TaskDescription(executable="retried", duration_s=50.0)])
        session.run(until=session.now)          # the start landing
        assert bound.wait is not None           # it waits for the pilot
        session.run(until=session.now + 20.0)
        node = pilot.nodes[retried.slots[0].node_index]
        tmgr.fail_task(retried, NodeFailure(node.name, pilot.uid))
        session.run(until=tmgr.wait_tasks())
        assert [t.state for t in (bound, staged_task, retried)] \
            == ["DONE"] * 3
        assert retried.attempts == 2
        assert engine.resumes == resumes


def test_a_cancelled_wait_leaves_no_timer_behind():
    """A cancel withdraws the timer of the wait it lands in -- a transfer's
    latency, a retry's backoff, its capacity deadline -- so the next entry
    on the queue is a live one: here nothing but the first heartbeat, a
    million seconds out, and the pilot's walltime."""
    heartbeat_s = 1e6
    with Session(seed=7, resilience_config=ResilienceConfig(
            heartbeat_interval_s=heartbeat_s,
            retry=RetryPolicy(max_retries=2, backoff_base_s=2.0,
                              rebind_wait_s=3600.0))) as session:
        engine = session.engine
        pmgr, tmgr, pilot = active_pilot(session)
        session.run(until=session.now + 1.0)  # the first beat is delivered

        def cancelled(task):
            tmgr.cancel_tasks(task)
            session.run(until=task.completed)
            return engine.peek()

        # in stage-in, during the transfer's latency timer
        (latency,) = tmgr.submit_tasks(staged("latency", "in.dat"))
        session.run(until=session.now + 1e-4)
        assert cancelled(latency) >= heartbeat_s
        # in the backoff of a retry
        (backoff,) = tmgr.submit_tasks(staged("backoff", duration=100.0))
        session.run(until=session.now + 5.0)
        node = pilot.nodes[backoff.slots[0].node_index]
        tmgr.fail_task(backoff, NodeFailure(node.name, pilot.uid))
        session.run(until=session.now + 1.0)
        assert cancelled(backoff) >= heartbeat_s
        # waiting for capacity: the only pilot is gone
        (capacity,) = tmgr.submit_tasks(staged("capacity", duration=100.0))
        session.run(until=session.now + 5.0)
        node = pilot.nodes[capacity.slots[0].node_index]
        tmgr.fail_task(capacity, NodeFailure(node.name, pilot.uid))
        session.run(until=session.now + 1e-3)
        pmgr.cancel_pilots(pilot)
        session.run(until=session.now + 10.0)
        assert capacity.state == TaskState.FAILED and capacity.wait
        assert cancelled(capacity) >= heartbeat_s
        assert [t.state for t in (latency, backoff, capacity)] \
            == ["CANCELED", "FAILED", "FAILED"]
        assert session.resilience.recovery.retries_granted == 0


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
            tmgr.fail_task(tmgr._tasks[uid], NodeFailure(node.name, pilot.uid))
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


# ---------------------------------------------------------------------------
# Bit-identity of the waits: binding, every kind of stage-in, stage-out,
# cancels in each wait, a corrupt transfer and pilot-loss retries -- the
# rows the generator waits produced
# ---------------------------------------------------------------------------

def staged(name, source=None, size=1e9, link=False, out=None, duration=5.0):
    """A task staging *source* in (a link directive with *link*) and
    *out* out."""
    inputs = []
    if source is not None:
        inputs.append({"source": source, "size_bytes": size} if not link
                      else {"action": "link", "source": source,
                            "target": f"{source}.lnk", "size_bytes": size})
    outputs = [{"target": out, "size_bytes": 1e9}] if out else []
    return TaskDescription(executable=name, duration_s=duration,
                           input_staging=inputs, output_staging=outputs)


def waits_transcript():
    """Run the waits scenario; everything the golden compares."""
    with Session(seed=7, resilience_config=ResilienceConfig(
            heartbeat_interval_s=5.0,
            retry=RetryPolicy(max_retries=2, backoff_base_s=2.0,
                              rebind_wait_s=40.0),
            faults=FaultModel(node_mtbf_s=0.0,
                              transfer_corrupt_prob=0.2))) as session:
        engine = session.engine
        monitor = session.resilience.monitor
        batch = session.batch_system("delta")
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        # the second pilot asks for every node of delta: it queues behind
        # the first, and is cancelled before it ever becomes active
        first, queued = pmgr.submit_pilots([
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9),
            PilotDescription(resource="delta", nodes=124, runtime_s=1e9)])
        tmgr.add_pilots([first, queued])
        # binding: on a pending pilot, on one that ends before it is
        # active (retried elsewhere), and a cancel while bound
        _, _, bind_cancel = tmgr.submit_tasks(
            [staged("bind-a"), staged("bind-b"), staged("bind-cancel")])
        session.run(until=0.5)
        tmgr.cancel_tasks(bind_cancel)
        pmgr.cancel_pilots(queued)
        session.run(until=first.became_active)
        # stage-in: a cold owner and its rider, a link, a rider whose owner
        # is cancelled mid-flow, cancels in the latency timer and in the
        # flow; a cancel in stage-out
        t0 = session.now
        cold, rider, link, owner, orphan, latency, flow, out = \
            tmgr.submit_tasks([
                staged("cold", "cold.dat"), staged("rider", "cold.dat"),
                staged("link", "x.dat", link=True),
                staged("owner", "shared.dat", size=2e9),
                staged("orphan", "shared.dat", size=2e9),
                staged("latency", "latency.dat"), staged("flow", "flow.dat"),
                staged("out", out="out.dat", duration=1.0)])
        session.run(until=t0 + 1e-4)
        tmgr.cancel_tasks(latency)
        session.run(until=t0 + 0.5)
        tmgr.cancel_tasks([owner, flow])
        while out.state != TaskState.TMGR_STAGING_OUTPUT:
            session.run(until=session.now + 0.25)
        session.run(until=session.now + 0.3)
        tmgr.cancel_tasks(out)
        session.run(until=tmgr.wait_tasks([cold, rider, link, orphan]))
        # a warm hit, and cold moves of which one arrives corrupt (retried)
        session.run(until=tmgr.wait_tasks(tmgr.submit_tasks(
            [staged("warm", "cold.dat")]
            + [staged(f"c{i}", f"c{i}.dat", size=1e8) for i in range(6)])))
        # pilot loss: one retry gives up at rebind_wait_s, cancels land in
        # the detection wait and in the backoff
        gives_up, detect_cancel, backoff_cancel = tmgr.submit_tasks(
            [staged("gives-up", duration=1000.0),
             staged("detect-cancel", duration=1000.0),
             staged("backoff-cancel", duration=1000.0)])
        session.run(until=session.now + 10.0)
        batch.fail(first.batch_job)
        session.run(until=session.now + 3.0)
        tmgr.cancel_tasks(detect_cancel)
        session.run(until=monitor.declared(first.uid))
        session.run(until=session.now + 0.5)
        tmgr.cancel_tasks(backoff_cancel)
        session.run(until=tmgr.wait_tasks(
            [gives_up, detect_cancel, backoff_cancel]))
        # a retry that waits for the declaration, then for pilots_changed
        # when a replacement pilot is submitted
        (second,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(second)
        session.run(until=second.became_active)
        tmgr.submit_tasks([staged("comes-back", duration=20.0)])
        session.run(until=session.now + 10.0)
        batch.fail(second.batch_job)
        session.run(until=monitor.declared(second.uid))
        session.run(until=session.now + 10.0)
        tmgr.add_pilots(pmgr.submit_pilots(second.description))
        session.run(until=tmgr.wait_tasks())
        recovery = session.resilience.recovery
        dmgr = tmgr.data_manager
        return {
            "rows": [[r.time, r.uid, r.event, r.component]
                     for r in session.profiler.events()],
            "tasks": [[t.uid, t.description.executable, t.state, t.attempts]
                      for t in tmgr.tasks],
            "entries": engine.entries,
            "inflight": [list(key) for key in session.data.inflight],
            "active_flows": {link.name: link.active_flows for link in
                             session.data.transfers.links().values()},
            "retries": [[r.task_uid, r.origin, r.failed_at, r.resumed_at]
                        for r in recovery.records],
            "gave_up": recovery.gave_up,
            "staging": [dmgr.cache_hits, dmgr.cache_misses, dmgr.dedup_hits,
                        dmgr.links_total, dmgr.bytes_transferred],
            "corrupt": len(session.resilience.injector.faults(
                "transfer_corrupt")),
        }


def test_waits_scenario_matches_the_parent_row_for_row():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(waits_transcript()))
    # the scenario has teeth: every wait it is meant to cover ran
    origins = [r[1] for r in got["retries"]]
    assert origins.count("pilot") == 2 and "transfer" in origins
    assert got["corrupt"] == 1 and len(got["gave_up"]) == 1
    hits, _, riders, links, _ = got["staging"]
    assert hits >= 1 and riders >= 1 and links == 1
    states = {name: state for _, name, state, _ in got["tasks"]}
    assert [states[n] for n in ("bind-b", "orphan", "comes-back")] \
        == ["DONE"] * 3
    assert [states[n] for n in ("bind-cancel", "owner", "latency", "flow",
                                "out")] == ["CANCELED"] * 5
    assert [states[n] for n in ("gives-up", "detect-cancel",
                                "backoff-cancel")] == ["FAILED"] * 3
    assert got["inflight"] == []
    assert set(got["active_flows"].values()) == {0}
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    record = waits_transcript()
    lines = ["{"]
    for n, (key, value) in enumerate(record.items()):
        comma = "," if n < len(record) - 1 else ""
        if key == "rows":                     # one row a line
            body = ",\n".join("  " + json.dumps(item) for item in value)
            lines += [f' "{key}": [', body, f" ]{comma}"]
        else:
            lines.append(f' "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")


def test_a_hook_left_on_a_processed_event_still_cancels():
    """An observer raising on the first bound task's FAILED stops the
    callbacks of ``became_active`` there (its exception goes to ``run()``),
    so the second task's hook never runs; the pilot's end then cancels
    that task, whose hook sits on an event already processed."""
    with Session(seed=5) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        first, second = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=1.0)
             for _ in range(2)])
        raised = []

        def observer(task, state):
            if state == TaskState.FAILED and not raised:
                raised.append(task)
                raise RuntimeError("observer raised on FAILED")

        tmgr.register_callback(observer)
        pmgr.cancel_pilots(pilot)  # still queued: it never becomes active
        with pytest.raises(RuntimeError, match="observer raised"):
            session.run()
        session.run()
        assert raised == [first]
        assert [first.state, second.state] == ["FAILED", "CANCELED"]
        assert second.completed.processed


def test_every_queued_request_holds_the_agents_one_grant_landing():
    # the agent binds its grant landing once: a deep queue holds one bound
    # method, not one per request
    with Session(seed=0) as session:
        pmgr, tmgr = PilotManager(session), TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        session.run(until=pmgr.wait_active([pilot]))
        tasks = tmgr.submit_tasks([TaskDescription(
            executable="x", duration_s=5.0, cores_per_rank=64)] * 20)
        session.run(until=session.now + 1.0)
        entries = list(pilot.agent.scheduler._entries.values())
        assert len(entries) >= 10
        assert {id(entry[3]) for entry in entries} == \
            {id(pilot.agent._landing)}
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)
