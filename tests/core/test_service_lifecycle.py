"""Integration tests for the service runtime: bootstrap, serve, stop."""

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    RequestTimeout,
    ResilienceConfig,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
    ServiceState,
    Session,
    TaskDescription,
    TaskState,
)
from repro.pilot.task import Task
from repro.resilience import NodeFailure, PilotLost


@pytest.fixture
def env():
    with Session(seed=5) as session:
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=16, runtime_s=1e7))
        yield session, pmgr, smgr, pilot


class TestBootstrap:
    def test_service_becomes_ready(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="llama-8b"), pilot)
        session.run(until=handle.ready)
        assert handle.service_state == ServiceState.READY
        assert handle.address is not None
        assert handle.instance.running

    def test_bootstrap_phases_profiled(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="llama-8b"), pilot)
        session.run(until=handle.ready)
        prof = session.profiler
        launch = prof.duration(handle.uid, "launch_start", "launch_stop")
        init = prof.duration(handle.uid, "init_start", "init_stop")
        publish = prof.duration(handle.uid, "publish_start", "publish_stop")
        total = prof.duration(handle.uid, "bootstrap_start", "bootstrap_stop")
        assert launch > 0 and init > 0 and publish > 0
        # Fig. 3 shape: init dominates; publish < launch.
        assert init > launch > publish
        assert total == pytest.approx(launch + init + publish, rel=0.15)

    def test_service_occupies_a_gpu(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="llama-8b"), pilot)
        session.run(until=handle.ready)
        assert pilot.nodes.total_free_gpus == 15

    def test_service_registered_in_registry(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="llama-8b"), pilot)
        session.run(until=handle.ready)
        infos = smgr.registry.list_services(model="llama-8b")
        assert len(infos) == 1
        assert infos[0].uid == handle.uid
        assert infos[0].platform == "delta"

    def test_multiple_services_concurrent_bootstrap(self, env):
        session, _, smgr, pilot = env
        handles = smgr.start_services(
            [ServiceDescription(model="llama-8b") for _ in range(8)], pilot)
        session.run(until=smgr.wait_ready(handles))
        assert all(h.is_ready for h in handles)
        assert pilot.nodes.total_free_gpus == 8
        # endpoints are distinct
        assert len({h.address.name for h in handles}) == 8

    def test_startup_timeout_fails_service(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="llama-8b", startup_timeout_s=1.0),
            pilot)
        with pytest.raises(RuntimeError):
            session.run(until=handle.ready)
        session.run(until=handle.stopped)
        assert handle.service_state == ServiceState.FAILED
        # resources returned
        assert pilot.nodes.total_free_gpus == 16

    def test_a_ready_service_outlives_its_startup_timeout(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(ServiceDescription(
            model="noop", gpus_per_rank=0, startup_timeout_s=30.0), pilot)
        session.run(until=handle.ready)
        session.run(until=session.now + 60.0)
        assert handle.is_ready

    def test_noop_service_boots_fast(self, env):
        session, _, smgr, pilot = env
        (noop,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0), pilot)
        session.run(until=noop.ready)
        init = session.profiler.duration(noop.uid, "init_start", "init_stop")
        assert init < 2.0


class TestServing:
    def _ready_service(self, env, model="noop", **kw):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model=model, gpus_per_rank=0, **kw), pilot)
        session.run(until=handle.ready)
        return session, smgr, handle

    def test_inference_round_trip(self, env):
        session, smgr, handle = self._ready_service(env)
        client = ServiceClient(session, platform="delta")

        def work():
            result = yield from client.infer(handle.address, "ping pilot")
            return result

        result = session.run(until=session.engine.process(work()))
        assert result.ok
        assert result.service_uid == handle.uid
        assert result.response_time > 0
        assert result.response_time == pytest.approx(
            result.communication + result.service_time
            + result.inference_time, rel=1e-6)

    def test_noop_rt_dominated_by_communication(self, env):
        session, smgr, handle = self._ready_service(env)
        client = ServiceClient(session, platform="delta")

        def work():
            yield from client.run_workload([handle.address], 200)

        session.run(until=session.engine.process(work()))
        comm = sum(r.communication for r in client.results)
        service = sum(r.service_time for r in client.results)
        infer = sum(r.inference_time for r in client.results)
        assert comm > service > infer  # Fig. 4 ordering

    def test_llm_rt_dominated_by_inference(self, env):
        session, smgr, handle = self._ready_service(
            env, model="llama-8b")
        client = ServiceClient(session, platform="delta")

        def work():
            yield from client.run_workload(
                [handle.address], 5, prompt="hybrid workflows",
                params={"max_tokens": 128})

        session.run(until=session.engine.process(work()))
        for r in client.results:
            assert r.inference_time > r.communication + r.service_time

    def test_single_threaded_service_queues_requests(self, env):
        session, smgr, handle = self._ready_service(env, model="llama-8b")
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(4)]

        def work(c):
            yield from c.run_workload([handle.address], 2,
                                      params={"max_tokens": 64})

        procs = [session.engine.process(work(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))
        # later requests waited behind earlier ones
        queue_times = [r.queue_time for c in clients for r in c.results]
        assert max(queue_times) > 1.0
        assert handle.instance.requests_handled == 8

    def test_llm_service_returns_generated_text(self, env):
        session, smgr, handle = self._ready_service(env, model="llama-8b")
        client = ServiceClient(session, platform="delta")

        def work():
            return (yield from client.infer(
                handle.address, "the scheduler places",
                params={"max_tokens": 32}))

        result = session.run(until=session.engine.process(work()))
        assert len(result.text.split()) > 0
        assert result.payload["model"] == "llama-8b"

    def test_ping(self, env):
        session, smgr, handle = self._ready_service(env)
        client = ServiceClient(session, platform="delta")

        def work():
            return (yield from client.ping(handle.address))

        rtt = session.run(until=session.engine.process(work()))
        assert 0 < rtt < 0.01


class TestStopAndFailure:
    def test_stop_releases_everything(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0), pilot)
        session.run(until=handle.ready)
        smgr.stop_services(handle)
        session.run(until=handle.stopped)
        assert handle.service_state == ServiceState.STOPPED
        assert handle.task.state == TaskState.DONE
        assert not handle.instance.running
        assert smgr.registry.list_services() == []
        assert pilot.nodes.total_free_cores == pilot.nodes.total_cores

    def test_bootstrap_failed_before_ready_withdraws_the_startup_timeout(
            self, env):
        """The pilot dies before the service is up: the service fails, and
        the failed ``ready`` withdraws the startup timeout.  The watchdog
        process this replaced waited on ``ready`` and re-raised its failure
        from ``run()`` instead."""
        session, pmgr, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0,
                               startup_timeout_s=600.0), pilot)
        pmgr.cancel_pilots(pilot)
        session.run()
        assert handle.service_state == ServiceState.FAILED
        assert not handle.ready.ok
        assert session.now < 600.0
        assert session.engine.peek() == float("inf")

    def test_interrupt_at_the_grant_instant_leaks_no_slots(self, env):
        """A blocker's release grants the queued service; in the same
        instant the startup timeout's end lands (an URGENT landing, as the
        timer's), so it overtakes the grant's landing.  The service must
        not keep slots its bootstrap never received."""
        session, _, smgr, pilot = env
        session.run(until=pilot.became_active)
        scheduler = pilot.agent.scheduler
        full = (pilot.nodes.total_free_cores, pilot.nodes.total_free_gpus)
        blocker = Task(session, TaskDescription(
            executable="hog", ranks=len(pilot.nodes),
            cores_per_rank=full[0] // len(pilot.nodes)), "task.blocker")
        granted = []
        scheduler.schedule(blocker, granted.append)
        (handle,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0), pilot)
        session.run(until=session.now + 1.0)
        assert granted == [blocker] and scheduler.queue_length == 1
        scheduler.release(blocker)  # grants the service's task ...
        assert handle.task.uid in scheduler.held_tasks
        smgr.fail_service(handle, RuntimeError("startup timeout"))  # too late
        session.run(until=handle.stopped)
        assert handle.service_state == ServiceState.FAILED
        assert handle.task.phase is None and handle.task.wait is None
        assert session.profiler.timestamp(handle.uid, "launch_start") is None
        assert scheduler.held_tasks == []
        assert (pilot.nodes.total_free_cores,
                pilot.nodes.total_free_gpus) == full

    def test_stop_is_idempotent(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0), pilot)
        session.run(until=handle.ready)
        smgr.stop_services(handle)
        smgr.stop_services(handle)
        session.run(until=handle.stopped)
        assert handle.service_state == ServiceState.STOPPED

    def test_requests_to_stopped_service_are_dropped(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0), pilot)
        session.run(until=handle.ready)
        address = handle.address
        smgr.stop_services(handle)
        session.run(until=handle.stopped)
        client = ServiceClient(session, platform="delta")
        client.socket.request(address, {"op": "infer", "prompt": "x"})
        session.run()
        assert session.bus.dropped_count >= 1

    def test_heartbeats_published(self, env):
        session, _, smgr, pilot = env
        (handle,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0,
                               heartbeat_interval_s=5.0), pilot)
        beats = []
        session.run(until=handle.ready)
        session.bus.subscribe(f"heartbeat.{handle.uid}", "delta",
                              lambda msg: beats.append(msg.payload["t"]))
        session.run(until=session.now + 16.0)
        assert len(beats) == 3
        assert beats[1] - beats[0] == pytest.approx(5.0, abs=0.5)

    def test_liveness_watchdog_detects_dead_service(self):
        """In a resilient session a READY service's heartbeats renew a lease
        on the session's monitor: a silent data plane ends FAILED."""
        config = ResilienceConfig(retry=None)
        with Session(seed=5, resilience_config=config) as session:
            pmgr = PilotManager(session)
            smgr = ServiceManager(session, registry_platform="delta")
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", gpus=16, runtime_s=1e7))
            (handle,) = smgr.start_services(
                ServiceDescription(model="noop", gpus_per_rank=0,
                                   heartbeat_interval_s=2.0), pilot)
            session.run(until=handle.ready)
            # Kill the data plane silently (no manager-visible stop).
            handle.instance.stop()
            session.run(until=handle.stopped)
            assert handle.service_state == ServiceState.FAILED
            detections = session.resilience.monitor.detections
            assert [d.uid for d in detections] == [handle.uid]


class TestRemoteServices:
    def test_remote_service_ready_without_bootstrap(self, env):
        session, _, smgr, _ = env
        handle = smgr.start_remote(
            ServiceDescription(model="llama-8b"), platform="r3")
        session.run(until=handle.ready)
        assert handle.remote
        assert handle.is_ready
        # no bootstrap profile events for remote persistent models
        assert session.profiler.timestamp(handle.uid,
                                          "bootstrap_start") is None
        assert session.now < 5.0  # no init cost was charged

    def test_remote_inference_pays_wan_latency(self, env):
        session, _, smgr, _ = env
        handle = smgr.start_remote(
            ServiceDescription(model="noop"), platform="r3")
        session.run(until=handle.ready)
        client = ServiceClient(session, platform="delta")

        def work():
            yield from client.run_workload([handle.address], 100)

        session.run(until=session.engine.process(work()))
        mean_comm = sum(r.communication for r in client.results) / 100
        # two WAN legs at ~0.47 ms
        assert 0.7e-3 < mean_comm < 1.5e-3

    def test_remote_service_stop(self, env):
        session, _, smgr, _ = env
        handle = smgr.start_remote(
            ServiceDescription(model="noop"), platform="r3")
        session.run(until=handle.ready)
        smgr.stop_services(handle)
        session.run(until=handle.stopped)
        assert handle.service_state == ServiceState.STOPPED


class TestServicesEndWithTheirPilot:
    """A service is a task on its pilot: when the pilot ends -- cancelled,
    out of walltime or preempted -- every service aboard ends with it,
    whatever step it is in, with its task mapped as ``TaskManager`` maps
    the pilot's tasks."""

    #: the step a service is in when its pilot ends
    PHASES = {
        "grant": lambda h: h.task.state == TaskState.AGENT_SCHEDULING,
        "launch": lambda h: h.service_state == ServiceState.LAUNCHING
        and h.task.state == TaskState.AGENT_EXECUTING,
        "init": lambda h: h.service_state == ServiceState.INITIALIZING,
        "publish": lambda h: h.service_state == ServiceState.PUBLISHING,
        "ready": lambda h: h.service_state == ServiceState.READY,
        "draining": lambda h: h.service_state == ServiceState.STOPPING
        and len(h.instance._queue) + h.instance._in_flight > 0,
    }

    @staticmethod
    def _aboard(phase, resilient, runtime_s=1e6):
        """A llama service on a delta pilot, heading for *phase*."""
        config = ResilienceConfig(heartbeat_interval_s=2.0, retry=None) \
            if resilient else None
        session = Session(seed=5, resilience_config=config)
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=16, runtime_s=runtime_s))
        if phase == "grant":  # every GPU, first
            smgr.start_services(ServiceDescription(
                model="noop", ranks=4, gpus_per_rank=4), pilot)
        (handle,) = smgr.start_services(ServiceDescription(
            model="llama-8b", gpus_per_rank=4, heartbeat_interval_s=2.0),
            pilot)
        fired = []
        handle.stopped.callbacks.append(fired.append)
        if phase == "draining":
            session.run(until=handle.ready)
            for _ in range(3):
                client = ServiceClient(session, platform="delta")
                session.engine.process(client.infer(
                    handle.address, "p", params={"max_tokens": 64}))
            session.run(until=session.now + 0.5)
            smgr.stop_services(handle)
        return session, pmgr, smgr, pilot, handle, fired

    def _phase_window(self, phase, resilient):
        """When the service is in *phase*, and when the pilot's walltime
        started: ``(enter, leave, started_at)`` on an unended run, read
        after each instant's entries ran."""
        session, _, _, pilot, handle, _ = self._aboard(phase, resilient)
        with session:
            inside = self.PHASES[phase]
            while not inside(handle):
                session.run(until=session.engine.peek())
            enter = session.now
            if phase == "ready":
                return enter, enter + 10.0, pilot.batch_job.started_at
            while inside(handle):
                session.run(until=session.engine.peek())
            return enter, session.now, pilot.batch_job.started_at

    @pytest.mark.parametrize("resilient", [False, True],
                             ids=["plain", "resilient"])
    @pytest.mark.parametrize("phase", list(PHASES))
    @pytest.mark.parametrize("end", ["cancel", "walltime", "preempt"])
    def test_the_service_ends_with_the_pilot(self, end, phase, resilient):
        enter, leave, started_at = self._phase_window(phase, resilient)
        at = (enter + leave) / 2
        runtime_s = at - started_at if end == "walltime" else 1e6
        session, pmgr, smgr, pilot, handle, fired = self._aboard(
            phase, resilient, runtime_s)
        with session:
            session.run(until=at - 1e-6)  # the walltime expires at *at*
            assert self.PHASES[phase](handle)
            if end == "cancel":
                pmgr.cancel_pilots(pilot)
            elif end == "preempt":
                session.batch_system("delta").fail(pilot.batch_job)
            session.run(until=session.now + 60.0)

            assert pilot.state in ("CANCELED", "FAILED")
            assert handle.service_state == ServiceState.FAILED
            lost = resilient and pilot.state == "FAILED"
            assert handle.task.state == (TaskState.FAILED if lost
                                         else TaskState.CANCELED)
            assert isinstance(handle.task.exception, PilotLost) == lost
            assert fired == [handle.stopped]
            assert handle.uid not in [i.uid for i in
                                      smgr.registry.list_services()]
            assert handle.uid not in pilot.agent.scheduler.held_tasks
            assert handle.instance is None or not handle.instance.running
            if resilient:
                assert handle.uid not in [
                    d.uid for d in session.resilience.monitor.detections]
            if handle.address is not None:
                client = ServiceClient(session, platform="delta",
                                       timeout_s=1.0, max_retries=0)
                with pytest.raises(RequestTimeout):
                    session.run(until=session.engine.process(
                        client.infer(handle.address, "anyone there?")))


    @pytest.mark.parametrize("resilient", [False, True],
                             ids=["plain", "resilient"])
    def test_a_service_started_on_an_ended_pilot_ends_unlaunched(
            self, resilient):
        session, pmgr, smgr, pilot, _, _ = self._aboard("ready", resilient)
        with session:
            session.run(until=pilot.became_active)
            pmgr.cancel_pilots(pilot)
            session.run(until=pilot.finished)
            (late,) = smgr.start_services(
                ServiceDescription(model="noop", gpus_per_rank=0), pilot)
            fired = []
            late.stopped.callbacks.append(fired.append)
            session.run(until=session.now + 60.0)
            assert late.service_state == ServiceState.FAILED
            assert late.task.state == TaskState.CANCELED
            assert fired == [late.stopped]
            assert session.profiler.timestamp(late.uid,
                                              "bootstrap_start") is None
            assert pilot.agent.scheduler.held_tasks == []
            assert smgr.ready_services() == []


class TestAStepThatRaisesFailsItsService:
    """An exception escaping a bootstrap step -- here a model factory
    refusing ``llama-0b`` -- fails that one service, as it failed the old
    driver process: nothing escapes ``session.run`` and no slot is held."""

    @pytest.mark.parametrize("where", ["local", "remote"])
    def test_an_unbuildable_model_fails_the_service(self, env, where):
        session, _, smgr, pilot = env
        bad = ServiceDescription(model="llama-0b")
        handle = smgr.start_remote(bad, platform="delta") \
            if where == "remote" else smgr.start_services(bad, pilot)[0]
        (good,) = smgr.start_services(
            ServiceDescription(model="noop", gpus_per_rank=0), pilot)
        fired = []
        handle.stopped.callbacks.append(fired.append)
        session.run(until=smgr.wait_stopped(handle))
        session.run(until=good.ready)
        assert handle.service_state == ServiceState.FAILED
        assert handle.task.state == TaskState.FAILED
        assert isinstance(handle.task.exception, ValueError)
        assert not handle.ready.ok
        assert fired == [handle.stopped]
        assert pilot.agent.scheduler.held_tasks == [good.uid]
        assert pilot.agent.executor._launching == 0
        assert smgr._loading.get("delta", 0) == 0
        assert smgr.ready_services() == [good]


class TestPathPins:
    """What a service costs the kernel: its worker processes' resumes and
    nothing else -- the bootstrap and the stop are landings."""

    def test_bootstrap_and_stop_resume_only_the_workers(self, env):
        session, _, smgr, pilot = env
        engine = session.engine
        session.run(until=pilot.became_active)
        noop = ServiceDescription(model="noop", gpus_per_rank=0)
        before = engine.resumes
        local = smgr.start_services([noop] * 3, pilot)
        session.run(until=smgr.wait_ready(local))
        assert engine.resumes - before == 3       # one worker each
        before = engine.resumes
        remote = [smgr.start_remote(noop, platform="r3") for _ in range(2)]
        session.run(until=smgr.wait_ready(remote))
        assert engine.resumes - before == 2
        before = engine.resumes
        smgr.stop_services(local + remote)
        session.run(until=smgr.wait_stopped(local + remote))
        assert engine.resumes - before == 5       # each worker's throw


def test_a_node_crash_under_a_service_ends_it():
    """The fault injector hands a crashed node's holders to
    ``resilience.fail_task``; a service's task is one of them."""
    config = ResilienceConfig(heartbeat_interval_s=2.0, retry=None)
    with Session(seed=5, resilience_config=config) as session:
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=16, runtime_s=1e7))
        (handle,) = smgr.start_services(ServiceDescription(
            model="llama-8b", heartbeat_interval_s=2.0), pilot)
        session.run(until=handle.ready)
        node = pilot.nodes[handle.task.slots[0].node_index]
        node.mark_down()
        assert session.resilience.fail_task(
            handle.uid, NodeFailure(node.name, pilot.uid))
        session.run(until=session.now + 60.0)
        assert handle.service_state == ServiceState.FAILED
        assert handle.task.state == TaskState.FAILED
        assert isinstance(handle.task.exception, NodeFailure)
        assert pilot.agent.scheduler.held_tasks == []
        assert smgr.registry.list_services() == []
        assert session.resilience.monitor.lease(handle.uid).deregistered
        assert session.resilience.monitor.detections == []
