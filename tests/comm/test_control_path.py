"""The control path: what one registration, one telemetry report and one
monitored heartbeat cost the kernel.  A landed message is handed to its
consumer inside the landing's entry, so the only process resumed per
operation is the driver that issued it."""

from repro import ResilienceConfig, Session
from repro.comm.message import TELEMETRY_TOPIC, Address, LoadReport
from repro.core import EndpointRegistry, ServiceInfo
from repro.resilience import heartbeat_topic
from repro.sim.events import Process


def entries_and_resumes(n_ops, drive):
    """Kernel entries made, and generator resumes, by *n_ops* operations.

    *drive(session, n_ops)* sets the scene and returns the generator that
    performs the operations, one per iteration.
    """
    config = ResilienceConfig(heartbeat_interval_s=1.0, retry=None)
    with Session(seed=5, resilience_config=config) as session:
        engine = session.engine
        body = drive(session, n_ops)
        session.run(until=1.0)
        entries, resumes = engine.entries, engine.resumes
        session.run(until=engine.process(body))
        return engine.entries - entries, engine.resumes - resumes


def per_operation(drive):
    """(entries, resumes) of one operation: 100 minus 50, over 50, so that
    start-up constants cancel; the driver's own resume is included."""
    few = entries_and_resumes(50, drive)
    many = entries_and_resumes(100, drive)
    return (many[0] - few[0]) / 50, (many[1] - few[1]) / 50


def info(i):
    name = f"svc{i}.ep"
    return ServiceInfo(uid=f"service.{i}", name=name,
                       address=Address(name, "delta"), model="noop",
                       backend="ollama", platform="delta")


def report(t):
    return LoadReport(uid="service.0", t=t, queue_depth=0, in_flight=0,
                      ewma_service_s=0.0, handled=0, shed=0, workers=1,
                      max_batch_size=1)


def test_one_registration_costs_four_entries_and_one_resume():
    registries = []

    def drive(session, n_ops):
        registry = EndpointRegistry(session, platform="delta")
        registries.append(registry)
        client = session.bus.connect("delta")

        def body():
            for i in range(n_ops):
                reply = yield client.request(
                    registry.address, {"op": "register", "info": info(i)})
                assert reply.payload["ok"]
        return body()

    # two wire legs, one modelled delay, the caller's reply
    assert per_operation(drive) == (4, 1)
    assert len(registries[-1]) == 100


def test_one_telemetry_report_costs_two_entries_and_one_resume():
    registries = []

    def drive(session, n_ops):
        registry = EndpointRegistry(session, platform="delta")
        registries.append(registry)
        registry._entries["svc0.ep"] = registry._by_uid["service.0"] = info(0)

        def body():
            for _ in range(n_ops):
                session.bus.publish(
                    TELEMETRY_TOPIC, report(session.now),
                    sender=Address("svc0.ep", "delta"))
                yield session.engine.timeout(1.0)
        return body()

    # the wire leg and the driver's own wait
    assert per_operation(drive) == (2, 1)
    assert registries[-1].load_of("service.0").t == 100.0


def test_one_monitored_heartbeat_costs_three_entries_and_one_resume():
    leases = []

    def drive(session, n_ops):
        leases.append(session.resilience.monitor.watch(
            "svc.x", interval_s=1.0, misses=3))

        def body():
            for _ in range(n_ops):
                session.bus.publish(heartbeat_topic("svc.x"), {},
                                    sender=Address("svc.x.hb", "delta"))
                yield session.engine.timeout(1.0)
        return body()

    # the wire leg, the lease's re-armed expiry and the driver's own wait
    assert per_operation(drive) == (3, 1)
    assert leases[-1].beats == 100 and not leases[-1].expired


def test_the_registry_and_a_watched_lease_own_no_process():
    config = ResilienceConfig(heartbeat_interval_s=1.0, retry=None)
    with Session(seed=5, resilience_config=config) as session:
        registry = EndpointRegistry(session, platform="delta")
        lease = session.resilience.monitor.watch("svc.x", interval_s=1.0)
        client = session.bus.connect("delta")
        reply = client.request(registry.address,
                               {"op": "register", "info": info(0)})
        session.bus.publish(heartbeat_topic("svc.x"), {})
        session.run(until=reply)
        assert lease.beats == 1 and len(registry) == 1
        assert session.engine.resumes == 0
        for owner in (registry, lease):
            assert not [v for v in vars(owner).values()
                        if isinstance(v, Process)]
