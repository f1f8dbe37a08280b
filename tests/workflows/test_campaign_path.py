"""The campaign / data path end to end: what a node, a windowed start and a
staged directive cost the kernel.

Budgets are taken by differencing campaigns of N = 50 and N = 100 one-task
chains driven through ``Session`` -> ``CampaignRunner(window=)``, so the
per-campaign constants (pilot bring-up, the ``run_campaign`` process, the
``finished`` event) cancel.  Per chain ``a-i -> b-i`` of two build nodes:

====================================  =======  ==========================
entry                                  count    owner
====================================  =======  ==========================
grant, launch, exec, task.completed    2 x 4    task path (test_task_path)
start landing per admitted chunk       2        TaskManager._start_batch
launch landing (a-i released b-i)      1        CampaignRunner._launch
====================================  =======  ==========================

and no ``Process``, no ``Condition`` and no ``Routine`` at all.  A ``run=``
node is one ``Routine`` (plus whatever its generator waits for).  A staged
task adds no ``Routine`` either: a warm stage-in adds nothing; a cold one
adds the transfer's own four entries (latency timer, link timer, flow
completion, in-flight event) and the one join landing of its
``Staging``.
"""

from collections import Counter

import pytest

from repro import PilotDescription, PilotManager, Session, TaskManager
from repro.pilot.description import TaskDescription
from repro.sim.events import Condition, Process, Routine
from repro.workflows import CampaignGraph, CampaignRunner, TaskNode


def campaign_cost(n_chains, monkeypatch, window=8, tail=None, inputs=None):
    """Kernel entries, landings by handler name and Process / Condition /
    Routine objects constructed by one campaign of *n_chains* chains
    ``a-i -> b-i`` (``-> c-i``, a ``run=`` node, with *tail*)."""
    with Session(seed=5) as session:
        engine = session.engine
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        session.run(until=pmgr.wait_active([pilot]))
        if inputs == "warm":  # one task stages the dataset ahead of time
            session.run(until=tmgr.wait_tasks(tmgr.submit_tasks(
                TaskDescription(executable="warm-up", duration_s=1.0,
                                input_staging=[{"source": "dataset",
                                                "size_bytes": 1e9}]))))

        def task(name, i):
            staging = []
            if inputs == "warm":
                staging = [{"source": "dataset", "size_bytes": 1e9}]
            elif inputs == "cold":
                staging = [{"source": f"in-{name}-{i}", "size_bytes": 1e9}]
            return [TaskDescription(executable=name, duration_s=10.0,
                                    input_staging=staging)]

        nodes = []
        for i in range(n_chains):
            nodes += [
                TaskNode(name=f"a-{i}", build=lambda c, i=i: task("a", i)),
                TaskNode(name=f"b-{i}", deps=(f"a-{i}",),
                         build=lambda c, i=i: task("b", i))]
            if tail is not None:
                nodes.append(TaskNode(name=f"c-{i}", deps=(f"b-{i}",),
                                      run=tail))
        runner = CampaignRunner(session, tmgr, window=window)

        made = Counter()
        for owner, name in ((Process, "__init__"), (Condition, "__init__"),
                            (Routine, "__init__"),
                            (TaskManager, "_start_batch"),
                            (CampaignRunner, "_launch")):
            def counted(self, *args, _f=getattr(owner, name), _key=(
                    owner.__name__ if name == "__init__" else name)):
                made[_key] += 1
                _f(self, *args)
            monkeypatch.setattr(owner, name, counted)
        entries = engine.entries
        proc = engine.process(runner.run_campaign(
            CampaignGraph("chains", nodes)))
        session.run(until=proc)
        monkeypatch.undo()
        assert all(t.state == "DONE" for t in runner.tasks)
        assert len(runner.tasks) == 2 * n_chains
        return dict(made, entries=engine.entries - entries)


def per_chain(monkeypatch, **kwargs):
    few = campaign_cost(50, monkeypatch, **kwargs)
    many = campaign_cost(100, monkeypatch, **kwargs)
    return {key: (many[key] - few.get(key, 0)) / 50 for key in many}


def test_a_build_node_is_a_record_not_a_process(monkeypatch):
    made = per_chain(monkeypatch)
    assert made.get("Process", 0) == 0      # no node, feeder or directive
    assert made.get("Condition", 0) == 0    # process; joins are counters
    assert made.get("Routine", 0) == 0
    assert made["_start_batch"] == 2        # one per admitted chunk
    assert made["_launch"] == 1             # a-i settled and released b-i;
    #                                         b-i has no dependents: none
    assert made["entries"] == 2 * 4 + 2 + 1


def test_a_run_node_is_one_routine(monkeypatch):
    def tail(runner, context):
        yield runner.session.engine.timeout(5.0)

    made = per_chain(monkeypatch, tail=tail)
    assert made.get("Process", 0) == made.get("Condition", 0) == 0
    assert made["Routine"] == 1
    assert made["_launch"] == 2             # a-i and b-i have dependents
    # the chain of two build nodes, b-i's launch landing, the timeout
    assert made["entries"] == (2 * 4 + 2 + 1) + 1 + 1


@pytest.mark.parametrize("inputs, entries", [
    # stage() settles the directive inside the start landing
    ("warm", 0),
    # latency timer, link timer, flow completion, the in-flight (dedup)
    # event -- the transfer's own -- and the join landing of the call
    ("cold", 5),
])
def test_a_staged_directive_costs_only_what_it_waits_for(
        monkeypatch, inputs, entries):
    plain = per_chain(monkeypatch, window=1)
    staged = per_chain(monkeypatch, window=1, inputs=inputs)
    assert staged.get("Process", 0) == staged.get("Condition", 0) == 0
    assert staged.get("Routine", 0) == 0     # a staged task runs none
    assert staged["entries"] - plain["entries"] == 2 * entries
