"""Fault injection: node crash/degrade, preemption, link faults, crashes."""

import pytest

from repro import (
    FaultModel,
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.hpc.node import NodeState
from repro.pilot.states import PilotState, ServiceState, TaskState
from repro.resilience import PilotResubmitPolicy, RetryPolicy


def make_session(faults, retry=None, **kwargs):
    return Session(seed=11, resilience_config=ResilienceConfig(
        heartbeat_interval_s=2.0, retry=retry, faults=faults, **kwargs))


def one_pilot(session, nodes=2, runtime_s=1e9):
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=nodes, runtime_s=runtime_s))
    tmgr.add_pilots(pilot)
    return pmgr, tmgr, pilot


class TestNodeFaults:
    def test_node_crash_kills_resident_tasks_and_repairs(self):
        faults = FaultModel(node_mtbf_s=150.0, node_mttr_s=50.0)
        with make_session(faults) as session:
            _, tmgr, pilot = one_pilot(session)
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=400.0,
                                cores_per_rank=32)
                for _ in range(4)])
            session.run(until=tmgr.wait_tasks(tasks))
            injector = session.resilience.injector
            crashes = injector.faults("node_crash")
            assert crashes, "MTBF 150s over 400s must crash something"
            # no retry policy: the killed tasks are terminally FAILED with
            # a structured node-origin reason
            failed = [t for t in tasks if t.state == TaskState.FAILED]
            assert failed
            for task in failed:
                assert task.failure.origin == "node"
                assert task.failure.exception_type == "NodeFailure"
                assert task.failure.node_name
            # repairs follow crashes; slot books stay clean
            session.run(until=session.now + 300.0)
            assert len(injector.faults("node_repair")) >= 1
            assert pilot.nodes.total_free_cores == 2 * 64

    def test_degraded_node_drains_without_killing(self):
        faults = FaultModel(node_mtbf_s=100.0, node_mttr_s=30.0,
                            degraded_fraction=1.0)
        with make_session(faults) as session:
            _, tmgr, pilot = one_pilot(session)
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=500.0,
                                cores_per_rank=16)
                for _ in range(4)])
            session.run(until=tmgr.wait_tasks(tasks))
            assert all(t.state == TaskState.DONE for t in tasks)
            assert session.resilience.injector.faults("node_degraded")

    def test_down_node_rejects_placements_until_repair(self):
        with Session(seed=1) as session:
            node = NodeState(0, "n0", 8, 0, 16.0)
            node.mark_down()
            assert not node.fits(1)
            node.mark_up()
            assert node.fits(1)
            node.mark_degraded()
            assert not node.fits(1)


class TestPilotPreemption:
    def test_preemption_fails_pilot_through_batch_system(self):
        faults = FaultModel(pilot_preempt_mtbf_s=100.0)
        with make_session(faults) as session:
            _, tmgr, pilot = one_pilot(session)
            session.run(until=2000.0)
            assert pilot.state == PilotState.FAILED
            assert pilot.batch_job.state == "FAILED"
            assert session.resilience.injector.faults("pilot_preempt")

    def test_cache_wipe_on_pilot_loss_restages_from_origin(self):
        faults = FaultModel(pilot_preempt_mtbf_s=300.0,
                            wipe_cache_on_pilot_loss=True)
        with make_session(
                faults, retry=RetryPolicy(max_retries=2),
                pilot_resubmit=PilotResubmitPolicy(max_resubmits=1),
        ) as session:
            _, tmgr, pilot = one_pilot(session)
            size = 5e9
            first = tmgr.submit_tasks(TaskDescription(
                executable="x", duration_s=10.0,
                input_staging=[{"source": "warm/data",
                                "size_bytes": size}]))
            session.run(until=tmgr.wait_tasks(first))
            moved_before = tmgr.data_manager.bytes_transferred
            assert moved_before == pytest.approx(size)
            # wait for the preemption + resubmitted pilot (the replacement
            # is armed too, so probe before its own preemption draw fires)
            session.run(until=100.0)
            assert session.resilience.injector.faults("pilot_preempt")
            # warm replica was wiped with the platform: a new request pays
            # the WAN again, pulled from the durable origin
            again = tmgr.submit_tasks(TaskDescription(
                executable="x", duration_s=10.0,
                input_staging=[{"source": "warm/data",
                                "size_bytes": size}]))
            session.run(until=tmgr.wait_tasks(again))
            assert again[0].state == TaskState.DONE
            assert tmgr.data_manager.bytes_transferred == \
                pytest.approx(2 * size)


class TestLinkFaults:
    def test_corrupt_transfer_surfaces_as_transfer_failure(self):
        faults = FaultModel(transfer_corrupt_prob=1.0)
        with make_session(faults) as session:
            _, tmgr, _ = one_pilot(session)
            (task,) = tmgr.submit_tasks(TaskDescription(
                executable="x", duration_s=5.0,
                input_staging=[{"source": "d", "size_bytes": 1e9}]))
            session.run(until=tmgr.wait_tasks([task]))
            assert task.state == TaskState.FAILED
            assert task.failure.origin == "transfer"
            assert session.data.transfers.corrupted_count >= 1

    def test_corrupt_transfer_recovers_under_retry(self):
        faults = FaultModel(transfer_corrupt_prob=0.5)
        with make_session(faults,
                          retry=RetryPolicy(max_retries=5,
                                            backoff_base_s=0.2)) as session:
            _, tmgr, _ = one_pilot(session)
            tasks = tmgr.submit_tasks([
                TaskDescription(executable="x", duration_s=5.0,
                                input_staging=[{"source": f"d{i}",
                                                "size_bytes": 1e8}])
                for i in range(6)])
            session.run(until=tmgr.wait_tasks(tasks))
            assert all(t.state == TaskState.DONE for t in tasks)
            assert session.resilience.recovery.retries_granted >= 1

    def test_link_flap_aborts_inflight_flows(self):
        from repro.data.transfers import TransferAborted
        from repro.hpc.network import SharedLink

        with Session(seed=5) as session:
            link = SharedLink(session.engine, 1.0, name="wan")
            flows = [link.transfer(5e9) for _ in range(3)]
            outcomes = []

            def watch(flow):
                try:
                    yield flow
                    outcomes.append("done")
                except TransferAborted:
                    outcomes.append("aborted")

            for flow in flows:
                session.engine.process(watch(flow))
            session.run(until=1.0)
            killed = link.interrupt_all(
                lambda f: TransferAborted("flap"))
            session.run()
            assert killed == 3
            assert outcomes == ["aborted"] * 3
            assert link.active_flows == 0


class TestServiceCrashes:
    def test_service_crash_detected_by_liveness_and_scrubbed(self):
        faults = FaultModel(service_crash_mtbf_s=120.0)
        with make_session(faults) as session:
            pmgr = PilotManager(session)
            smgr = ServiceManager(session, registry_platform="delta")
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e9))
            (svc,) = smgr.start_services(
                ServiceDescription(model="noop", backend="ollama",
                                   heartbeat_interval_s=5.0), pilot)
            session.run(until=svc.ready)
            session.run(until=svc.stopped)
            assert svc.service_state == ServiceState.FAILED
            assert session.resilience.injector.faults("service_crash")
            # the liveness declaration was recorded with lease semantics
            assert any(d.uid == svc.uid
                       for d in session.resilience.monitor.detections)
            # and the stale endpoint was scrubbed from the registry
            session.run(until=session.now + 30.0)
            assert smgr.registry.lookup(svc.description.endpoint_name
                                        or f"{svc.uid}.ep") is None
