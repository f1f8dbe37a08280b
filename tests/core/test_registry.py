"""Tests for the endpoint registry."""

import pytest

from repro.comm.message import Address
from repro.core import EndpointRegistry, ServiceInfo
from repro.pilot import Session


@pytest.fixture
def env():
    with Session(seed=2) as session:
        registry = EndpointRegistry(session, platform="delta")
        client = session.bus.connect("delta")
        yield session, registry, client


def make_info(name="svc-ep", model="noop", platform="delta"):
    return ServiceInfo(uid=f"service.{name}", name=name,
                       address=Address(name, platform), model=model,
                       backend="ollama", platform=platform)


class TestRegistryOps:
    def test_register_and_lookup_over_bus(self, env):
        session, registry, client = env
        info = make_info()
        replies = []

        def work():
            r1 = yield client.request(registry.address,
                                      {"op": "register", "info": info})
            replies.append(r1.payload)
            r2 = yield client.request(registry.address,
                                      {"op": "lookup", "name": "svc-ep"})
            replies.append(r2.payload)

        session.run(until=session.engine.process(work()))
        assert replies[0]["ok"]
        assert replies[1]["ok"]
        assert replies[1]["info"].uid == info.uid
        assert replies[1]["info"].registered_at > 0

    def test_register_charges_processing_cost(self, env):
        session, registry, client = env

        def work():
            t0 = session.now
            yield client.request(registry.address,
                                 {"op": "register", "info": make_info()})
            return session.now - t0

        elapsed = session.run(until=session.engine.process(work()))
        assert 0.4 < elapsed < 1.5  # publish processing ~0.8 s

    def test_lookup_is_cheap(self, env):
        session, registry, client = env

        def work():
            yield client.request(registry.address,
                                 {"op": "register", "info": make_info()})
            t0 = session.now
            yield client.request(registry.address,
                                 {"op": "lookup", "name": "svc-ep"})
            return session.now - t0

        elapsed = session.run(until=session.engine.process(work()))
        assert elapsed < 0.01

    def test_concurrent_registrations_overlap(self, env):
        """The processing cost is per endpoint, not a registry lock: eight
        registrations sent together are all done after about one cost."""
        session, registry, client = env
        replies = [client.request(registry.address,
                                  {"op": "register",
                                   "info": make_info(f"ep{i}")})
                   for i in range(8)]
        session.run(until=session.engine.all_of(replies))
        assert all(reply.value.payload["ok"] for reply in replies)
        assert len(registry) == 8
        assert session.now < 1.5              # not 8 x 0.8 s

    def test_deregister(self, env):
        session, registry, client = env

        def work():
            yield client.request(registry.address,
                                 {"op": "register", "info": make_info()})
            r = yield client.request(registry.address,
                                     {"op": "deregister", "name": "svc-ep"})
            return r.payload

        reply = session.run(until=session.engine.process(work()))
        assert reply["ok"]
        assert len(registry) == 0

    def test_deregister_unknown_returns_not_ok(self, env):
        session, registry, client = env

        def work():
            r = yield client.request(registry.address,
                                     {"op": "deregister", "name": "ghost"})
            return r.payload

        assert not session.run(until=session.engine.process(work()))["ok"]

    def test_list_over_bus(self, env):
        session, registry, client = env

        def work():
            yield client.request(registry.address,
                                 {"op": "register",
                                  "info": make_info("a", "noop")})
            yield client.request(registry.address,
                                 {"op": "register",
                                  "info": make_info("b", "llama-8b")})
            r = yield client.request(registry.address, {"op": "list"})
            return r.payload

        reply = session.run(until=session.engine.process(work()))
        assert {s.name for s in reply["services"]} == {"a", "b"}

    def test_unknown_op_rejected(self, env):
        session, registry, client = env

        def work():
            r = yield client.request(registry.address, {"op": "explode"})
            return r.payload

        reply = session.run(until=session.engine.process(work()))
        assert not reply["ok"]


class TestInProcessReads:
    def test_list_filters(self, env):
        session, registry, client = env

        def work():
            yield client.request(
                registry.address,
                {"op": "register", "info": make_info("a", "noop", "delta")})
            yield client.request(
                registry.address,
                {"op": "register", "info": make_info("b", "llama-8b", "r3")})

        session.run(until=session.engine.process(work()))
        assert len(registry.list_services()) == 2
        assert [s.name for s in registry.list_services(model="noop")] == ["a"]
        assert [s.name for s in registry.list_services(platform="r3")] == ["b"]

    def test_lookup_missing_returns_none(self, env):
        _, registry, _ = env
        assert registry.lookup("missing") is None


class TestRegistriesInOneSession:
    def test_two_service_managers_each_serve_their_own_instances(self):
        from repro import (PilotDescription, PilotManager, ServiceClient,
                           ServiceDescription, ServiceManager, ServiceState)

        with Session(seed=7) as session:
            (pilot,) = PilotManager(session).submit_pilots(
                PilotDescription(resource="delta", gpus=16, runtime_s=1e7))
            first = ServiceManager(session)
            second = ServiceManager(session, registry_platform="delta")
            # the first keeps the fixed name (and rng stream) it always had
            assert first.registry.address.name == "registry"
            assert second.registry.address.name == "registry.0001"
            noop = ServiceDescription(model="noop", gpus_per_rank=0)
            (a,) = first.start_services(noop, pilot)
            (b,) = second.start_services(noop, pilot)
            session.run(until=session.engine.all_of([a.ready, b.ready]))
            assert [s.uid for s in first.registry.list_services()] == [a.uid]
            assert [s.uid for s in second.registry.list_services()] == [b.uid]
            assert second.registry.lookup(a.address.name) is None

            client = ServiceClient(session, platform="delta")

            def work():
                for handle in (a, b):
                    result = yield from client.infer(handle.address, "hi")
                    assert result.ok and result.service_uid == handle.uid

            session.run(until=session.engine.process(work()))
            for smgr, handle in ((first, a), (second, b)):
                smgr.stop_services(handle)
                session.run(until=handle.stopped)
                assert handle.service_state == ServiceState.STOPPED
                assert smgr.registry.list_services() == []
            assert len(client.results) == 2

    def test_a_later_registry_draws_from_its_own_stream(self):
        with Session(seed=2) as session:
            EndpointRegistry(session, platform="delta")
            later = EndpointRegistry(session, platform="delta")
            assert later._rng is session.rng("registry.registry.0001")
            assert later._rng is not session.rng("registry.registry")
