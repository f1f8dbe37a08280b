"""Tests for the in-process message bus (REQ/REP, PUB/SUB, latency)."""

import numpy as np
import pytest

from repro.comm import MessageBus
from repro.hpc import DELTA, R3, Fabric
from repro.sim import RngHub, SimulationEngine


@pytest.fixture
def setup():
    engine = SimulationEngine()
    fabric = Fabric(RngHub(0).stream("fabric"))
    fabric.add_platform(DELTA)
    fabric.add_platform(R3)
    bus = MessageBus(engine, fabric)
    return engine, fabric, bus


class TestReqRep:
    def test_round_trip(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")

        def service():
            msg = yield server.recv()
            server.reply(msg, payload=msg.payload * 2)

        result = {}
        def requester():
            reply = yield client.request(server.address, 21)
            result["value"] = reply.payload

        engine.process(service())
        engine.process(requester())
        engine.run()
        assert result["value"] == 42

    def test_request_latency_is_charged(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="r3")
        client = bus.connect(platform="delta")

        def service():
            msg = yield server.recv()
            server.reply(msg, payload="pong")

        done = {}
        def requester():
            t0 = engine.now
            yield client.request(server.address, "ping")
            done["rtt"] = engine.now - t0

        engine.process(service())
        engine.process(requester())
        engine.run()
        # Two WAN legs at ~0.47 ms each.
        assert 0.5e-3 < done["rtt"] < 2e-3

    def test_local_rtt_below_remote_rtt(self, setup):
        engine, _, bus = setup

        def measure(server_platform, name):
            server = bus.bind(name, platform=server_platform)
            client = bus.connect(platform="delta")
            def service():
                while True:
                    msg = yield server.recv()
                    server.reply(msg, "ok")
            engine.process(service())
            rtts = []
            def requester():
                for _ in range(50):
                    t0 = engine.now
                    yield client.request(server.address, "x")
                    rtts.append(engine.now - t0)
            engine.process(requester())
            engine.run()
            return np.mean(rtts)

        local = measure("delta", "svc-local")
        remote = measure("r3", "svc-remote")
        assert remote > local * 3

    def test_concurrent_requests_matched_by_correlation(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")

        def service():
            while True:
                msg = yield server.recv()
                server.reply(msg, payload=("echo", msg.payload))

        results = []
        def requester(i):
            reply = yield client.request(server.address, i)
            results.append(reply.payload)

        engine.process(service())
        for i in range(10):
            engine.process(requester(i))
        engine.run()
        assert sorted(results) == [("echo", i) for i in range(10)]

    def test_fire_and_forget_send(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        got = []
        def service():
            msg = yield server.recv()
            got.append(msg.payload)
        engine.process(service())
        client.send(server.address, {"cmd": "stop"})
        engine.run()
        assert got == [{"cmd": "stop"}]

    def test_message_to_unbound_endpoint_dropped(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        address = server.address
        server.close()
        client.send(address, "ghost")
        engine.run()
        assert bus.dropped_count == 1

    def test_duplicate_bind_rejected(self, setup):
        _, _, bus = setup
        bus.bind("svc", platform="delta")
        with pytest.raises(ValueError, match="already bound"):
            bus.bind("svc", platform="delta")

    def test_bind_unknown_platform_rejected(self, setup):
        _, _, bus = setup
        with pytest.raises(KeyError):
            bus.bind("svc", platform="not-a-platform")

    def test_lookup(self, setup):
        _, _, bus = setup
        server = bus.bind("svc", platform="delta")
        assert bus.lookup("svc") == server.address
        assert bus.lookup("nope") is None

    def test_serve_helper(self, setup):
        engine, _, bus = setup
        server = bus.bind("echo", platform="delta")
        bus.serve(server, handler=lambda msg: msg.payload.upper())
        client = bus.connect(platform="delta")
        out = {}
        def requester():
            reply = yield client.request(server.address, "hello")
            out["r"] = reply.payload
        engine.process(requester())
        engine.run()
        assert out["r"] == "HELLO"


class TestLanding:
    """A message lands where it is consumed, or is dropped -- never parked."""

    def test_message_landing_after_close_is_dropped(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        client.request(server.address, {"op": "infer"})
        server.close()                        # request is on the wire
        engine.run(until=1.0)
        assert bus.delivered_count == 0
        assert bus.dropped_count == 1
        assert len(server.inbox) == 0         # nothing retained
        assert bus.lookup("svc") is None

    def test_reply_landing_after_client_close_is_dropped(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        bus.serve(server, handler=lambda msg: "pong")
        client = bus.connect(platform="delta")
        reply = client.request(server.address, "ping")
        while bus.delivered_count < 1 or engine.peek() <= engine.now:
            engine.step()                     # request lands, reply leaves
        assert client.in_flight == 1 and bus.dropped_count == 0
        client.close()
        engine.run(until=1.0)
        assert not reply.triggered
        assert (bus.delivered_count, bus.dropped_count) == (1, 1)

    def test_rebound_name_does_not_inherit_messages_in_flight(self, setup):
        engine, _, bus = setup
        old = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        client.send(old.address, "for the old socket")
        old.close()
        new = bus.bind("svc", platform="delta")
        engine.run(until=1.0)
        assert bus.dropped_count == 1
        assert len(old.inbox) == len(new.inbox) == 0

    def test_connect_starts_no_process(self, setup):
        engine, _, bus = setup
        client = bus.connect(platform="delta")
        assert engine.peek() == float("inf")  # nothing scheduled
        client.close()
        engine.run()
        assert engine.peek() == float("inf")

    def test_unmatched_reply_is_warned_about_not_delivered(self, setup,
                                                           monkeypatch):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        bus.serve(server, handler=lambda msg: "late")
        client = bus.connect(platform="delta")
        reply = client.request(server.address, "ping")
        assert client.cancel_request(reply)
        warned = []
        monkeypatch.setattr("repro.comm.bus.log.warning",
                            lambda fmt, *args: warned.append(fmt % args))
        engine.run(until=1.0)
        assert not reply.triggered
        assert len(warned) == 1 and "unmatched reply" in warned[0]

    def test_handle_with_takes_over_the_backlog_oldest_first(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        client.send(server.address, "first")
        engine.run(until=1.0)
        client.send(server.address, "second")
        engine.run(until=2.0)
        assert server.pending == 2
        seen = []
        server.handle_with(lambda msg: seen.append(msg.payload))
        assert seen == ["first", "second"] and server.pending == 0
        client.send(server.address, "third")
        engine.run(until=3.0)
        assert seen == ["first", "second", "third"] and server.pending == 0

    def test_pull_and_push_consumers_see_the_same_arrivals(self):
        def arrivals(push):
            engine = SimulationEngine()
            fabric = Fabric(RngHub(4).stream("fabric"))
            fabric.add_platform(DELTA)
            fabric.add_platform(R3)
            bus = MessageBus(engine, fabric)
            server = bus.bind("svc", platform="r3")
            clients = [bus.connect(platform=p, name=f"c{i}")
                       for i, p in enumerate(("delta", "r3", "delta"))]
            seen = []
            if push:
                server.handle_with(
                    lambda msg: seen.append((msg.payload, msg.received_at)))
            else:
                def loop():
                    while True:
                        msg = yield server.recv()
                        assert msg.received_at == engine.now
                        seen.append((msg.payload, msg.received_at))
                engine.process(loop())

            def sender(i, client):
                gaps = RngHub(9).stream(f"gaps.{i}")
                for k in range(20):
                    yield engine.timeout(float(gaps.exponential(2e-4)))
                    client.send(server.address, (i, k))
            for i, client in enumerate(clients):
                engine.process(sender(i, client))
            engine.run()
            return seen

        pulled, pushed = arrivals(push=False), arrivals(push=True)
        assert len(pulled) == 60
        assert pushed == pulled


class TestPubSub:
    def test_publish_reaches_all_subscribers(self, setup):
        engine, _, bus = setup
        sub1 = bus.subscribe("state", platform="delta")
        sub2 = bus.subscribe("state", platform="delta")
        got = []
        def listener(sub, tag):
            msg = yield sub.get()
            got.append((tag, msg.payload))
        engine.process(listener(sub1, "a"))
        engine.process(listener(sub2, "b"))
        fanout = bus.publish("state", {"task": "t1", "state": "DONE"})
        engine.run()
        assert fanout == 2
        assert sorted(tag for tag, _ in got) == ["a", "b"]

    def test_topic_isolation(self, setup):
        engine, _, bus = setup
        sub = bus.subscribe("control", platform="delta")
        bus.publish("state", "irrelevant")
        engine.run()
        assert len(sub.inbox) == 0

    def test_cancelled_subscription_stops_delivery(self, setup):
        engine, _, bus = setup
        sub = bus.subscribe("state", platform="delta")
        sub.cancel()
        bus.publish("state", "late")
        engine.run()
        assert len(sub.inbox) == 0

    def test_publish_without_subscribers_is_noop(self, setup):
        _, _, bus = setup
        assert bus.publish("void", 1) == 0

    def test_message_timestamps_recorded(self, setup):
        engine, _, bus = setup
        sub = bus.subscribe("t", platform="delta")
        sender = bus.connect(platform="r3")
        bus.publish("t", "x", sender=sender.address)
        got = []
        def listener():
            msg = yield sub.get()
            got.append(msg)
        engine.process(listener())
        engine.run()
        (msg,) = got
        assert msg.sent_at == 0.0
        assert msg.received_at > msg.sent_at  # WAN latency applied


class TestPubCoalescing:
    """Same-delay fan-out shares one engine hop (batched landing)."""

    def test_senderless_fanout_costs_one_queue_entry(self, setup):
        engine, _, bus = setup
        subs = [bus.subscribe("state", platform="delta") for _ in range(5)]
        assert bus.publish("state", "payload") == 5
        # all five deliveries ride one pooled deferred in the now-queue
        assert len(engine._heap) + len(engine._nowq) == 1
        engine.run()
        for sub in subs:
            assert len(sub.inbox) == 1
        assert bus.delivered_count == 5

    def test_batched_landing_preserves_subscription_order(self, setup):
        engine, _, bus = setup
        subs = [bus.subscribe("state", platform="delta") for _ in range(4)]
        got = []

        def listener(sub, tag):
            msg = yield sub.get()
            got.append((tag, msg.payload))

        for i, sub in enumerate(subs):
            engine.process(listener(sub, i))
        bus.publish("state", "x")
        engine.run()
        assert got == [(0, "x"), (1, "x"), (2, "x"), (3, "x")]

    def test_cancelled_subscription_skipped_inside_batch(self, setup):
        engine, _, bus = setup
        keep1 = bus.subscribe("state", platform="delta")
        doomed = bus.subscribe("state", platform="delta")
        keep2 = bus.subscribe("state", platform="delta")
        assert bus.publish("state", "late") == 3
        doomed.cancel()  # after publish, before the batch lands
        engine.run()
        assert len(keep1.inbox) == 1
        assert len(doomed.inbox) == 0
        assert len(keep2.inbox) == 1
        assert bus.delivered_count == 2

    def test_distinct_delays_never_share_a_group(self, setup):
        engine, _, bus = setup
        local = bus.subscribe("state", platform="r3")
        remote = bus.subscribe("state", platform="delta")
        sender = bus.connect(platform="r3")
        arrivals = {}

        def listener(sub, tag):
            msg = yield sub.get()
            arrivals[tag] = msg.received_at

        engine.process(listener(local, "local"))
        engine.process(listener(remote, "remote"))
        bus.publish("state", "x", sender=sender.address)
        engine.run()
        # intra-platform delivery beats the WAN hop; both were charged
        assert 0 < arrivals["local"] < arrivals["remote"]
