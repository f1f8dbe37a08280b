"""Tests for client workload loops and balancer integration."""

import pytest

from repro import (
    LeastLoadedBalancer,
    PilotDescription,
    PilotManager,
    RoundRobinBalancer,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
    Session,
)


@pytest.fixture
def env():
    with Session(seed=8) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handles = [smgr.start_remote(ServiceDescription(model="noop"),
                                     platform="r3") for _ in range(3)]
        session.run(until=smgr.wait_ready(handles))
        yield session, smgr, handles


class TestRunWorkload:
    def test_issues_exact_request_count(self, env):
        session, _, handles = env
        client = ServiceClient(session, platform="delta")
        targets = [h.address for h in handles]

        def work():
            return (yield from client.run_workload(targets, 30))

        results = session.run(until=session.engine.process(work()))
        assert len(results) == 30
        assert len(client.results) == 30
        assert all(r.ok for r in results)

    def test_round_robin_spreads_requests(self, env):
        session, _, handles = env
        client = ServiceClient(session, platform="delta")
        targets = [h.address for h in handles]

        def work():
            yield from client.run_workload(targets, 30,
                                           balancer=RoundRobinBalancer())

        session.run(until=session.engine.process(work()))
        counts = {h.uid: 0 for h in handles}
        for r in client.results:
            counts[r.service_uid] += 1
        assert set(counts.values()) == {10}

    def test_shared_balancer_across_clients(self, env):
        session, _, handles = env
        targets = [h.address for h in handles]
        balancer = LeastLoadedBalancer()
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(3)]

        def work(c):
            yield from c.run_workload(targets, 12, balancer=balancer)

        procs = [session.engine.process(work(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))
        # balancer drained back to zero in-flight everywhere
        for target in targets:
            assert balancer.load_of(target) == 0

    def test_empty_targets_rejected(self, env):
        session, _, _ = env
        client = ServiceClient(session, platform="delta")

        def work():
            yield from client.run_workload([], 5)

        proc = session.engine.process(work())
        with pytest.raises(ValueError):
            session.run(until=proc)

    def test_clear_empties_the_results(self, env):
        session, _, handles = env
        client = ServiceClient(session, platform="delta")

        def work():
            yield from client.run_workload([handles[0].address], 5)

        session.run(until=session.engine.process(work()))
        assert len(client.results) == 5
        client.clear()
        assert client.results == []


class TestMixedLocalRemote:
    def test_client_can_mix_local_and_remote_services(self):
        """One workload spread over a pilot-local and a remote service."""
        with Session(seed=9) as session:
            pmgr = PilotManager(session)
            smgr = ServiceManager(session, registry_platform="delta")
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e7))
            (local,) = smgr.start_services(
                ServiceDescription(model="noop", gpus_per_rank=0,
                                   startup_timeout_s=1e6), pilot)
            remote = smgr.start_remote(ServiceDescription(model="noop"),
                                       platform="r3")
            session.run(until=smgr.wait_ready([local, remote]))

            client = ServiceClient(session, platform="delta")

            def work():
                yield from client.run_workload(
                    [local.address, remote.address], 40)

            session.run(until=session.engine.process(work()))
            by_service = {}
            for r in client.results:
                by_service.setdefault(r.service_uid, []).append(r)
            local_rts = [r.communication for r in by_service[local.uid]]
            remote_rts = [r.communication for r in by_service[remote.uid]]
            # same workload, transparently different latency regimes (§IV)
            assert sum(remote_rts) / len(remote_rts) > \
                3 * sum(local_rts) / len(local_rts)
