"""The request path end to end: what one request/reply costs the kernel,
that nothing sent before ``start()`` is lost, and that the paper's
RT = communication + service + inference split does not move.

``data/parent_request_path.json`` was written by running this file as a
script on the commit where ``Message`` was still a dataclass, the client
waited on each attempt through a nested generator and the fabric drew its
latencies one scalar numpy call at a time.  The scenario below has to
reproduce it exactly.
"""

import json
from pathlib import Path
from unittest.mock import patch

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ServiceClient,
    ServiceDescription,
    ServiceInstance,
    ServiceManager,
    Session,
)
from repro.comm.message import estimate_size
from repro.core import client as client_module
from repro.core.client import RequestTimeout
from repro.core.load_balancer import RoundRobinBalancer
from repro.serving.hosts import create_host

GOLDEN = Path(__file__).parent / "data" / "parent_request_path.json"


def bound_instance(session, model="noop"):
    """A bound but not yet started instance (no manager, no bootstrap)."""
    socket = session.bus.bind(session.ids.generate("svc.rp"),
                              platform="delta")
    instance = ServiceInstance(session, f"{socket.address.name}.inst",
                               socket, create_host("ollama", model),
                               heartbeat_interval_s=1e6)
    return instance, socket.address


# ---------------------------------------------------------------------------
# Event budget: 2 wire legs + 1 queue hand-off + 3 modelled delays + 1 reply
# resolution, and nothing for forwarding inside the process; a timeout adds
# its one timer.  Resumes: the caller once, the worker four times
# ---------------------------------------------------------------------------

def entries_and_resumes(n_requests, timeout_s=None):
    """Kernel entries made, and generator resumes, by *n_requests* infers."""
    with Session(seed=5) as session:
        engine = session.engine
        instance, address = bound_instance(session)
        instance.start()
        client = ServiceClient(session, platform="delta", timeout_s=timeout_s)
        session.run(until=1.0)                # workers and heartbeat settle
        entries, resumes = engine.entries, engine.resumes

        def caller():
            for _ in range(n_requests):
                result = yield from client.infer(address, "noop")
                assert result.ok
        session.run(until=engine.process(caller()))
        assert instance.requests_handled == n_requests
        return engine.entries - entries, engine.resumes - resumes


def per_request(timeout_s=None):
    few = entries_and_resumes(50, timeout_s)
    many = entries_and_resumes(100, timeout_s)
    # start-up constants cancel
    return (many[0] - few[0]) / 50, (many[1] - few[1]) / 50


def test_one_request_costs_seven_engine_entries():
    assert per_request() == (7, 5)


def test_a_timed_request_costs_eight_entries_and_five_resumes():
    assert per_request(timeout_s=10.0) == (8, 5)


def test_results_are_slotted_and_a_reply_carries_the_stamp_the_service_built():
    with Session(seed=5) as session:
        instance, address = bound_instance(session)
        built, landed = [], []
        reply = instance.socket.reply

        def spy_reply(msg, payload, meta=None):
            built.append(meta)
            reply(msg, payload, meta=meta)
        instance.socket.reply = spy_reply
        instance.start()
        client = ServiceClient(session, platform="delta")
        decompose = client._decompose

        def spy_decompose(reply, *args):
            landed.append(reply.meta)
            return decompose(reply, *args)
        client._decompose = spy_decompose
        proc = session.engine.process(client.infer(address, "noop"))
        session.run(until=proc)
        result = proc.value
        assert not hasattr(result, "__dict__")
        assert len(built) == len(landed) == 1
        assert landed[0] is built[0]              # owned, not copied
        assert built[0]["_nbytes"] == estimate_size(result.payload)
        instance.stop()


# ---------------------------------------------------------------------------
# Backlog hand-over: bind and start() are a registry round trip apart
# ---------------------------------------------------------------------------

def test_requests_sent_before_start_are_served_after_it_in_order():
    with Session(seed=5) as session:
        engine = session.engine
        instance, address = bound_instance(session)
        sock = session.bus.connect("delta")
        early = []
        for i in range(2):                    # the first lands, then the next
            early.append(sock.request(address,
                                      {"op": "infer", "prompt": str(i)}))
            session.run(until=0.5 * (i + 1))
        assert not any(e.triggered for e in early)
        assert instance.queue_depth == 2      # waiting in the socket inbox
        order = []
        for i, event in enumerate(early):
            event.callbacks.append(lambda ev, i=i: order.append(i))

        instance.start()
        assert instance.socket.pending == 0   # handed over on start
        late = sock.request(address, {"op": "infer", "prompt": "late"})
        late.callbacks.append(lambda ev: order.append("late"))
        session.run(until=engine.all_of(early + [late]))

        assert order == [0, 1, "late"]
        assert all(e.value.payload["ok"] for e in early + [late])
        assert [e.value.meta["received_at"] for e in early] \
            == sorted(e.value.meta["received_at"] for e in early)
        assert early[0].value.meta["received_at"] < 1.0 \
            <= early[0].value.meta["dequeued_at"]
        assert instance.queue_depth == 0
        instance.stop()


def test_message_landing_on_a_stopped_instance_is_dropped():
    with Session(seed=5) as session:
        instance, address = bound_instance(session)
        instance.start()
        sock = session.bus.connect("delta")
        reply = sock.request(address, {"op": "infer", "prompt": "x"})
        instance.stop()                       # request still on the wire
        session.run(until=1.0)
        assert not reply.triggered
        assert session.bus.dropped_count == 1
        assert instance.queue_depth == 0 and instance.requests_handled == 0


# ---------------------------------------------------------------------------
# RT decomposition (paper Experiment 2): exact closure, parent's literals
# ---------------------------------------------------------------------------

#: (response_time, service_time, inference_time) per result, client by
#: client; produced on the commit before admission-on-arrival
RT_SPLIT = [
    (0.00012710576349739267, 4.709760445975597e-06, 1.999999999946489e-06),
    (0.0838712465575917, 5.944363131615837e-06, 0.08291048304508253),
    (0.00012766789828122516, 5.951876174359327e-06, 1.999999999946489e-06),
    (0.1751841204699368, 0.09395956707448683, 0.08029881322729748),
    (0.00012265150073509368, 5.620244769244387e-06, 1.999999999946489e-06),
    (0.17885761015083046, 0.0829054013647258, 0.09500632133259124),
    (0.00014202372807847752, 5.89808133821812e-06, 2.0000000000575113e-06),
    (0.136433453404311, 0.07917095732362234, 0.05625314704744966),
]


def test_rt_split_closes_and_matches_the_parent():
    with Session(seed=21) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handles = [
            smgr.start_remote(ServiceDescription(model="noop"),
                              platform="delta"),
            smgr.start_remote(ServiceDescription(model="llama-8b"),
                              platform="r3"),
        ]
        session.run(until=smgr.wait_ready(handles))
        targets = [h.address for h in handles]
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(2)]
        metas = []
        for client in clients:
            def spy(reply, t0, t1, retries, decompose=client._decompose):
                result = decompose(reply, t0, t1, retries)
                metas.append((result, reply.meta))
                return result
            client._decompose = spy

        def work(client):
            yield from client.run_workload(targets, 4, prompt="the runtime",
                                           params={"max_tokens": 4})
        procs = [session.engine.process(work(c)) for c in clients]
        session.run(until=session.engine.all_of(procs))

        results = [r for c in clients for r in c.results]
        assert len(results) == len(metas) == 8
        for result, meta in metas:
            assert (result.communication + result.service_time
                    + result.inference_time) \
                == pytest.approx(result.response_time, rel=1e-12)
            assert result.queue_time \
                == meta["dequeued_at"] - meta["received_at"] >= 0
            assert result.queue_time <= result.service_time
        assert any(r.queue_time > 0 for r in results)   # the split has teeth
        assert [(r.response_time, r.service_time, r.inference_time)
                for r in results] \
            == [pytest.approx(row, rel=1e-9) for row in RT_SPLIT]


# ---------------------------------------------------------------------------
# Golden transcript: busy, shed, retry, timeout, a late reply, ping
# ---------------------------------------------------------------------------

RESULT_FIELDS = ("client_uid", "service_uid", "ok", "submitted_at",
                 "completed_at", "response_time", "communication",
                 "service_time", "inference_time", "queue_time", "payload",
                 "retries")


def _reprs(value):
    """*value* ready for JSON, with every float as its ``repr``."""
    if isinstance(value, float):              # numpy's float64 included
        return repr(float(value))
    if isinstance(value, dict):
        return {key: _reprs(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reprs(item) for item in value]
    return value


class CrowdClient(ServiceClient):
    """A client whose backoff starts at 0.02 s, as the recording's crowd
    did; the rest of the scenario backs off from the default."""

    def _backoff(self, attempt):
        with patch.object(client_module, "BACKOFF_BASE_S", 0.02):
            return super()._backoff(attempt)


def request_transcript():
    """A local noop service, a batching llama service on vllm behind a
    bounded queue, and a noop instance that stops mid-run.  Six clients
    crowd the llama service: busy replies, shedding, backed-off retries,
    and clients that run out of retries.  A client with a timeout
    cycles over all three: timeouts against the stopped instance, and
    llama replies that land after their timeout and are dropped.  One
    ping."""
    with Session(seed=23) as session:
        engine, bus = session.engine, session.bus
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=2, runtime_s=1e6))
        (local,) = smgr.start_services(
            [ServiceDescription(model="noop", gpus_per_rank=0)], pilot)
        llama = smgr.start_remote(
            ServiceDescription(model="llama-8b", backend="vllm",
                               max_batch_size=4, max_queue_depth=2),
            platform="r3")
        doomed = smgr.start_remote(ServiceDescription(model="noop"),
                                   platform="delta")
        handles = [local, llama, doomed]
        session.run(until=smgr.wait_ready(handles))
        t_ready = engine.now

        crowd = [CrowdClient(session, platform="delta", max_retries=retries)
                 for retries in (0, 1, 4, 4, 4, 4)]
        impatient = ServiceClient(session, platform="delta", timeout_s=0.06,
                                  max_retries=1)
        clients = crowd + [impatient]
        late = []
        receive = impatient.socket._receive

        def counting_receive(msg):
            before = impatient.socket.in_flight
            receive(msg)
            if impatient.socket.in_flight == before:   # nobody waited
                late.append(_reprs(engine.now))
        impatient.socket._receive = counting_receive

        def crowd_work(client):
            yield from client.run_workload([llama.address], 12,
                                           prompt="the runtime",
                                           params={"max_tokens": 6})

        outcomes = []

        def impatient_work(crowd_done):
            targets = [llama.address, doomed.address, local.address]
            balancer = RoundRobinBalancer()
            for n in range(12):
                if n == 6:
                    yield crowd_done          # llama admits again
                try:
                    yield from impatient.infer(
                        balancer.pick(targets), "hello", {"max_tokens": 4},
                        balancer=balancer, targets=targets)
                    outcomes.append("reply")
                except RequestTimeout:
                    outcomes.append("timeout")

        procs = [engine.process(crowd_work(c)) for c in crowd]
        procs.append(engine.process(impatient_work(engine.all_of(procs))))
        ping = engine.process(crowd[0].ping(local.address))
        session.run(until=t_ready + 0.3)
        assert smgr.crash_service(doomed)
        session.run(until=engine.all_of(procs + [ping]))
        session.run(until=engine.now + 5.0)   # the last late replies land
        return {
            "results": [[_reprs(getattr(r, name)) for name in RESULT_FIELDS]
                        for c in clients for r in c.results],
            "outcomes": outcomes,
            "late_replies": late,
            "ping_s": _reprs(ping.value),
            "clients": [[c.busy_replies, c.timeouts, c.retries]
                        for c in clients],
            "services": [[h.instance.requests_handled,
                          h.instance.batches_handled, h.instance.shed_count,
                          h.instance.max_queue_seen,
                          _reprs(h.instance.ewma_service_s)]
                         for h in handles],
            "bus": [bus.sent_count, bus.delivered_count, bus.dropped_count],
        }


def test_request_path_reproduces_the_parent_transcript():
    golden = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(request_transcript()))
    # the scenario has teeth: every path it is meant to cover ran
    busy, timeouts, retries = zip(*got["clients"])
    assert sum(busy[:-1]) > 0 and sum(timeouts) > 0 and sum(retries) > 0
    assert got["late_replies"] and "timeout" in got["outcomes"]
    assert any(s[2] > 0 for s in got["services"])          # shed
    assert any(s[1] < s[0] for s in got["services"])       # batches > 1
    assert any(r[2] is False for r in got["results"])      # busy result
    for key in golden:
        assert got[key] == golden[key], key


if __name__ == "__main__":
    record = request_transcript()
    lines = ["{"]
    for n, (key, value) in enumerate(record.items()):
        comma = "," if n < len(record) - 1 else ""
        if key == "results":                  # one result a line
            body = ",\n".join("  " + json.dumps(item) for item in value)
            lines += [f' "{key}": [', body, f" ]{comma}"]
        else:
            lines.append(f' "{key}": {json.dumps(value)}{comma}')
    lines.append("}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")
