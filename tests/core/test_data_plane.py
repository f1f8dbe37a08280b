"""Tests for the adaptive data plane: continuous batching, bounded
admission queues, shed/busy replies, telemetry and draining."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import (
    RequestTimeout,
    ServiceClient,
    ServiceDescription,
    ServiceInstance,
    ServiceManager,
    Session,
)
from repro.comm.message import LoadReport
from repro.core import client as client_module
from repro.core.load_balancer import LeastLoadedBalancer
from repro.serving.hosts import create_host


def make_instance(session, model="llama-8b", backend="ollama",
                  max_concurrency=1, max_batch_size=None,
                  max_queue_depth=0, heartbeat_interval_s=100.0,
                  platform="delta"):
    """Bare data plane (no manager/bootstrap): socket + host + instance."""
    socket = session.bus.bind(f"svc.dp.{session.ids.generate('ep')}",
                              platform=platform)
    host = create_host(backend, model, max_concurrency=max_concurrency,
                       max_batch_size=max_batch_size)
    instance = ServiceInstance(session, socket.address.name, socket, host,
                               heartbeat_interval_s=heartbeat_interval_s,
                               max_queue_depth=max_queue_depth)
    instance.start()
    return instance, socket.address


# ---------------------------------------------------------------------------
# Bounded admission: the tentpole invariants (property-based)
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(bound=st.integers(min_value=1, max_value=6),
       offsets=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                  allow_nan=False),
                        min_size=1, max_size=25))
def test_bounded_queue_invariants(bound, offsets):
    """The two data-plane safety properties, under arbitrary arrival times:

    1. the admitted queue never exceeds its bound;
    2. every request gets exactly one reply -- success or a typed shed.
    """
    with Session(seed=13) as session:
        instance, address = make_instance(
            session, model="llama-8b", max_queue_depth=bound)
        sock = session.bus.connect("delta")
        replies = []

        def fire(offset):
            yield session.engine.timeout(offset)
            reply = yield sock.request(
                address, {"op": "infer", "prompt": "p",
                          "params": {"max_tokens": 8}})
            replies.append(reply)

        procs = [session.engine.process(fire(o)) for o in offsets]
        session.run(until=session.engine.all_of(procs))
        instance.stop()

        assert len(replies) == len(offsets)            # exactly one each
        ok = [r for r in replies if r.payload["ok"]]
        busy = [r for r in replies if r.payload.get("busy")]
        assert len(ok) + len(busy) == len(offsets)     # success xor shed
        assert len(ok) == instance.requests_handled
        assert len(busy) == instance.shed_count
        assert instance.max_queue_seen <= bound        # bound respected
        for reply in busy:                             # typed busy replies
            assert reply.payload["error"] == "busy"
            assert reply.payload["queue_bound"] == bound


def test_unbounded_queue_never_sheds():
    with Session(seed=7) as session:
        instance, address = make_instance(session, model="llama-8b")
        sock = session.bus.connect("delta")
        events = [sock.request(address, {"op": "infer", "prompt": "p",
                                         "params": {"max_tokens": 8}})
                  for _ in range(20)]
        session.run(until=session.engine.all_of(events))
        assert instance.shed_count == 0
        assert instance.requests_handled == 20
        assert all(e.value.payload["ok"] for e in events)


# ---------------------------------------------------------------------------
# Continuous batching
# ---------------------------------------------------------------------------

def test_worker_coalesces_queued_requests():
    with Session(seed=21) as session:
        instance, address = make_instance(
            session, model="llama-8b", backend="vllm",
            max_concurrency=1, max_batch_size=8)
        sock = session.bus.connect("delta")
        events = [sock.request(address, {"op": "infer", "prompt": "p",
                                         "params": {"max_tokens": 32}})
                  for _ in range(16)]
        session.run(until=session.engine.all_of(events))
        assert instance.requests_handled == 16
        # 16 requests arriving together take far fewer dispatches than 16.
        assert instance.batches_handled < 16
        batch_sizes = [e.value.meta["batch_size"] for e in events]
        assert max(batch_sizes) > 1

def test_batching_beats_serial_on_makespan():
    def run(max_batch_size):
        with Session(seed=5) as session:
            instance, address = make_instance(
                session, model="llama-8b", backend="vllm",
                max_concurrency=1, max_batch_size=max_batch_size)
            sock = session.bus.connect("delta")
            events = [sock.request(address,
                                   {"op": "infer", "prompt": "p",
                                    "params": {"max_tokens": 32}})
                      for _ in range(12)]
            session.run(until=session.engine.all_of(events))
            return session.now

    assert run(8) < run(1) / 2  # sub-linear batch cost model pays off


def test_serial_baseline_unchanged():
    """batch size 1 + unbounded queue == the paper's single-threaded host."""
    with Session(seed=5) as session:
        instance, address = make_instance(session, model="llama-8b")
        assert instance.host.max_batch_size == 1
        sock = session.bus.connect("delta")
        events = [sock.request(address, {"op": "infer", "prompt": "p",
                                         "params": {"max_tokens": 16}})
                  for _ in range(4)]
        session.run(until=session.engine.all_of(events))
        assert instance.batches_handled == 4
        assert all(e.value.meta["batch_size"] == 1 for e in events)


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------

def test_load_report_snapshot():
    with Session(seed=3) as session:
        instance, address = make_instance(session, max_queue_depth=5)
        report = instance.load_report()
        assert isinstance(report, LoadReport)
        assert report.queue_depth == 0 and report.in_flight == 0
        assert report.queue_bound == 5
        assert (report.workers, report.max_batch_size) == (1, 1)
        assert report.est_queue_delay_s == 0.0


def test_heartbeat_carries_load_report():
    with Session(seed=3) as session:
        instance, address = make_instance(session,
                                          heartbeat_interval_s=5.0)
        beat = session.engine.event()
        sub = session.bus.subscribe(f"heartbeat.{instance.uid}", "delta",
                                    beat.succeed)
        payload = session.run(until=beat).payload
        sub.cancel()
        report = payload["load"]
        assert isinstance(report, LoadReport)
        assert report.in_flight == 0 and report.shed == 0
        assert {"uid", "t", "queue", "handled"} <= payload.keys()


def test_registry_ingests_fleet_telemetry():
    with Session(seed=4) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handle = smgr.start_remote(
            ServiceDescription(model="llama-8b", heartbeat_interval_s=2.0),
            platform="r3")
        session.run(until=handle.ready)
        session.run(until=session.now + 5.0)
        report = smgr.registry.load_of(handle.uid)
        assert report is not None
        assert report.uid == handle.uid
        info = smgr.registry.list_services()[0]
        assert info.load is report
        assert smgr.registry.load_for(handle.address) is report


def test_deregistered_instance_leaves_no_stale_telemetry():
    """Heartbeats published while draining must not resurrect registry
    entries for a deregistered instance."""
    with Session(seed=4) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handle = smgr.start_remote(
            ServiceDescription(model="noop", heartbeat_interval_s=1.0),
            platform="r3")
        session.run(until=handle.ready)
        session.run(until=session.now + 3.0)
        assert smgr.registry.load_of(handle.uid) is not None
        smgr.stop_services(handle)
        session.run(until=handle.stopped)
        session.run(until=session.now + 5.0)
        assert smgr.registry.load_of(handle.uid) is None


def test_ewma_service_time_tracks_load():
    with Session(seed=9) as session:
        instance, address = make_instance(session, model="llama-8b")
        sock = session.bus.connect("delta")
        events = [sock.request(address, {"op": "infer", "prompt": "p",
                                         "params": {"max_tokens": 32}})
                  for _ in range(5)]
        session.run(until=session.engine.all_of(events))
        # llama-8b at 32 tokens decodes in roughly a second
        assert 0.1 < instance.ewma_service_s < 10.0


# ---------------------------------------------------------------------------
# Draining and shutdown
# ---------------------------------------------------------------------------

def test_orderly_stop_drains_admitted_requests():
    with Session(seed=6) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handle = smgr.start_remote(ServiceDescription(model="llama-8b"),
                                   platform="delta")
        session.run(until=handle.ready)
        sock = session.bus.connect("delta")
        events = [sock.request(handle.address,
                               {"op": "infer", "prompt": "p",
                                "params": {"max_tokens": 16}})
                  for _ in range(4)]
        session.run(until=session.now + 0.01)  # requests queued, none done
        smgr.stop_services(handle)
        session.run(until=handle.stopped)
        # every admitted request was answered before teardown
        assert all(e.processed and e.value.payload["ok"] for e in events)
        assert handle.instance.requests_handled == 4


def test_draining_instance_sheds_new_arrivals():
    with Session(seed=6) as session:
        instance, address = make_instance(session, model="llama-8b")
        sock = session.bus.connect("delta")
        first = sock.request(address, {"op": "infer", "prompt": "p",
                                       "params": {"max_tokens": 64}})
        session.run(until=session.now + 0.1)  # first request in flight
        drain = session.engine.event()
        instance.drain(drain.succeed)
        late = sock.request(address, {"op": "infer", "prompt": "p",
                                      "params": {"max_tokens": 64}})
        session.run(until=session.engine.all_of([drain, first, late]))
        assert first.value.payload["ok"]
        assert late.value.payload.get("busy")


# ---------------------------------------------------------------------------
# Client retry-on-busy and balancer accounting
# ---------------------------------------------------------------------------

def test_client_retries_busy_until_served(monkeypatch):
    monkeypatch.setattr(client_module, "BACKOFF_BASE_S", 0.5)
    with Session(seed=17) as session:
        instance, address = make_instance(
            session, model="llama-8b", max_queue_depth=1)
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(6)]

        def work(client):
            yield from client.run_workload([address], 2,
                                           params={"max_tokens": 16})

        procs = [session.engine.process(work(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))
        served = [r for c in clients for r in c.results if r.ok]
        assert len(served) == 12                 # everyone got through
        assert sum(c.busy_replies for c in clients) > 0
        assert sum(c.retries for c in clients) > 0
        assert instance.shed_count == sum(c.busy_replies for c in clients)


def test_busy_result_surfaces_after_retry_exhaustion():
    with Session(seed=17) as session:
        instance, address = make_instance(
            session, model="llama-8b", max_queue_depth=1)
        victim = ServiceClient(session, platform="delta", max_retries=0)
        # Fill the instance: one request in flight plus a full queue.
        blocker_sock = session.bus.connect("delta")
        for _ in range(2):
            blocker_sock.request(address, {"op": "infer", "prompt": "p",
                                           "params": {"max_tokens": 512}})

        def poke():
            yield session.engine.timeout(1.0)  # the queue is full by now
            result = yield from victim.infer(address, "p",
                                             params={"max_tokens": 16})
            return result

        proc = session.engine.process(poke())
        result = session.run(until=proc)
        assert not result.ok and result.busy


def test_balancer_accounting_survives_timeout():
    """Regression: in-flight counts must not leak when requests time out."""
    with Session(seed=23) as session:
        # A bound endpoint with no server loop: requests vanish into it.
        blackhole = session.bus.bind("svc.blackhole", platform="delta")
        target = blackhole.address
        balancer = LeastLoadedBalancer()
        client = ServiceClient(session, platform="delta",
                               timeout_s=0.5, max_retries=2)

        def work():
            yield from client.infer(target, "p", balancer=balancer,
                                    targets=[target])

        proc = session.engine.process(work())
        with pytest.raises(RequestTimeout):
            session.run(until=proc)
        assert client.timeouts == 3              # initial try + 2 retries
        assert balancer._in_flight.get(target.name, 0) == 0  # none leaked


def test_a_reply_before_the_timeout_leaves_no_armed_timer():
    """The reply withdraws its attempt's timer: once the instance stops,
    the queue looks as if no timeout had been set, so the clock is never
    dragged to ``t + timeout_s``."""
    def after_stop(timeout_s):
        with Session(seed=23) as session:
            socket = session.bus.bind("svc.timed", platform="delta")
            instance = ServiceInstance(session, "svc.timed.0", socket,
                                       create_host("ollama", "noop"),
                                       heartbeat_interval_s=100.0)
            instance.start()
            client = ServiceClient(session, platform="delta",
                                   timeout_s=timeout_s)
            proc = session.engine.process(
                client.infer(socket.address, "p"))
            assert session.run(until=proc).ok
            instance.stop()
            session.run()
            return session.now, session.engine.peek()

    assert after_stop(1e6) == after_stop(None)


def test_a_late_reply_is_dropped_and_the_retry_succeeds(monkeypatch):
    """The first attempt waits behind a long request and times out; its
    reply lands later and reaches nobody, and the retry gets its own."""
    warned = []
    monkeypatch.setattr("repro.comm.bus.log.warning",
                        lambda fmt, *args: warned.append(fmt % args))
    with Session(seed=23) as session:
        _, address = make_instance(session, model="llama-8b")
        session.bus.connect("delta").request(
            address, {"op": "infer", "prompt": "p",
                      "params": {"max_tokens": 64}})
        client = ServiceClient(session, platform="delta", timeout_s=1.0,
                               max_retries=1)
        proc = session.engine.process(
            client.infer(address, "p", params={"max_tokens": 4}))
        result = session.run(until=proc)
        assert result.ok and result.retries == 1
        assert (client.timeouts, client.retries) == (1, 1)
        assert [w for w in warned if "unmatched reply" in w] != []
        bus = session.bus
        assert bus.delivered_count + bus.dropped_count == bus.sent_count
        assert not client.socket._pending


def test_balancer_accounting_survives_infer_success_and_busy():
    with Session(seed=29) as session:
        instance, address = make_instance(
            session, model="llama-8b", max_queue_depth=1)
        balancer = LeastLoadedBalancer()
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(5)]

        def work(client):
            yield from client.run_workload([address], 2, balancer=balancer,
                                           params={"max_tokens": 16})

        procs = [session.engine.process(work(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))
        assert balancer._in_flight.get(address.name, 0) == 0
