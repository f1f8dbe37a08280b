"""The runtime frees what it is done with by reference counting alone.

A reference cycle is freed only by the cyclic collector, so a drive that
leaves cycles behind grows the heap between collections and pays for the
collector's passes.  With the collector paused, a task bag, a staged bag
(riders, links, stage-out, cancels in stage-in), a few service requests, a
campaign with ``run=`` nodes, and binding on a pending pilot with retries
and cancels in their backoff must leave nothing for ``gc.collect()`` to
find.
"""

import gc

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskManager,
)
from repro.pilot.description import TaskDescription
from repro.resilience import NodeFailure, ResilienceConfig, RetryPolicy
from repro.workflows import CampaignGraph, CampaignRunner, TaskNode


def sim_task(duration=1.0, cores=1):
    return TaskDescription(executable="x", duration_s=duration,
                           cores_per_rank=cores)


def task_bag(session, pilot, tmgr):
    tasks = tmgr.submit_tasks([sim_task(5.0, 1 + i % 4) for i in range(200)])
    session.run(until=tmgr.wait_tasks(tasks))


def staged_bag(session, pilot, tmgr):
    tasks = tmgr.submit_tasks([TaskDescription(
        executable="x", duration_s=5.0,
        input_staging=[{"source": f"in-{i % 7}", "size_bytes": 1e8},
                       {"action": "link", "source": f"l-{i}", "target": "t"}],
        output_staging=[{"target": f"out-{i}", "size_bytes": 1e6}])
        for i in range(100)])
    session.run(until=session.now + 0.5)
    tmgr.cancel_tasks(tasks[::9])
    session.run(until=tmgr.wait_tasks(tasks))


def service_requests(session, pilot, tmgr):
    smgr = ServiceManager(session, registry_platform="delta")
    (handle,) = smgr.start_services(ServiceDescription(model="noop"), pilot)
    session.run(until=smgr.wait_ready([handle]))
    client = ServiceClient(session, platform="delta")

    def work():
        return (yield from client.run_workload([handle.address], 10))

    results = session.run(until=session.engine.process(work()))
    assert len(results) == 10 and all(r.ok for r in results)


def campaign(session, pilot, tmgr):
    def run(runner, context):
        yield from runner.submit_and_wait([sim_task() for _ in range(3)])

    graph = CampaignGraph(name="g", nodes=[
        *(TaskNode(name=f"r{i}", run=run) for i in range(5)),
        TaskNode(name="b", deps=("r0",), build=lambda c: [sim_task()])])
    runner = CampaignRunner(session, tmgr)
    session.run(until=session.engine.process(runner.run_campaign(graph)))
    assert len(runner.node_tasks) == 6


@pytest.mark.parametrize("drive", [task_bag, staged_bag, service_requests,
                                   campaign])
def test_a_drive_leaves_no_cycle_for_the_collector(drive):
    gc.collect()
    gc.disable()
    try:
        with Session(seed=5) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(PilotDescription(
                resource="delta", nodes=2, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            session.run(until=pmgr.wait_active([pilot]))
            gc.collect()  # whatever set-up left is not the drive's
            drive(session, pilot, tmgr)
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_binding_and_retries_leave_no_cycle_for_the_collector():
    gc.collect()
    gc.disable()
    try:
        with Session(seed=5, resilience_config=ResilienceConfig(
                retry=RetryPolicy(max_retries=2))) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(PilotDescription(
                resource="delta", nodes=2, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            gc.collect()
            tasks = tmgr.submit_tasks([sim_task(20.0) for _ in range(30)])
            session.run(until=session.now + 10.0)  # bound on a pending pilot
            for task in tasks[::3]:
                tmgr.fail_task(task, NodeFailure("n", pilot.uid))
            session.run(until=session.now + 0.5)
            tmgr.cancel_tasks(tasks[::6])  # in their backoff
            session.run(until=tmgr.wait_tasks(tasks))
            assert gc.collect() == 0
    finally:
        gc.enable()
