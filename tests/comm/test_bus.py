"""Tests for the in-process message bus (REQ/REP, PUB/SUB, latency)."""

import numpy as np
import pytest

from repro.comm import MessageBus
from repro.hpc import DELTA, R3, Fabric
from repro.sim import RngHub, SimulationEngine
from repro.utils import IdRegistry


@pytest.fixture
def setup():
    engine = SimulationEngine()
    fabric = Fabric(RngHub(0).stream("fabric"))
    fabric.add_platform(DELTA)
    fabric.add_platform(R3)
    bus = MessageBus(engine, fabric, IdRegistry())
    yield engine, fabric, bus
    # every flight ends exactly one way, whatever the test did to it
    engine.run()
    assert bus.delivered_count + bus.dropped_count == bus.sent_count


def echo(server, fn=lambda payload: payload):
    """Serve *server*: every request is answered with fn(its payload)."""
    server.handle_with(lambda msg: server.reply(msg, fn(msg.payload)))


class TestReqRep:
    def test_round_trip(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")

        echo(server, lambda payload: payload * 2)
        result = {}
        def requester():
            reply = yield client.request(server.address, 21)
            result["value"] = reply.payload

        engine.process(requester())
        engine.run()
        assert result["value"] == 42

    def test_request_latency_is_charged(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="r3")
        client = bus.connect(platform="delta")

        echo(server, lambda payload: "pong")
        done = {}
        def requester():
            t0 = engine.now
            yield client.request(server.address, "ping")
            done["rtt"] = engine.now - t0

        engine.process(requester())
        engine.run()
        # Two WAN legs at ~0.47 ms each.
        assert 0.5e-3 < done["rtt"] < 2e-3

    def test_local_rtt_below_remote_rtt(self, setup):
        engine, _, bus = setup

        def measure(server_platform, name):
            server = bus.bind(name, platform=server_platform)
            client = bus.connect(platform="delta")
            echo(server, lambda payload: "ok")
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

        echo(server, lambda payload: ("echo", payload))
        results = []
        def requester(i):
            reply = yield client.request(server.address, i)
            results.append(reply.payload)

        for i in range(10):
            engine.process(requester(i))
        engine.run()
        assert sorted(results) == [("echo", i) for i in range(10)]

    def test_message_to_unbound_endpoint_dropped(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        address = server.address
        server.close()
        client.request(address, "ghost")
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

    def test_anonymous_sockets_are_named_by_the_registry_given(self, setup):
        _, _, bus = setup
        names = [bus.connect(platform="delta").address.name
                 for _ in range(2)]
        assert names == ["client-sock.0000", "client-sock.0001"]
        assert bus.ids.generate("client-sock") == "client-sock.0002"

    def test_handler_reply_round_trip(self, setup):
        engine, _, bus = setup
        server = bus.bind("echo", platform="delta")
        echo(server, str.upper)
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
        assert not server._backlog            # nothing retained
        assert "svc" not in bus._endpoints

    def test_rebound_name_does_not_inherit_messages_in_flight(self, setup):
        engine, _, bus = setup
        old = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        client.request(old.address, "for the old socket")
        old.close()
        new = bus.bind("svc", platform="delta")
        engine.run(until=1.0)
        assert bus.dropped_count == 1
        assert not old._backlog and not new._backlog

    def test_connect_starts_no_process(self, setup):
        engine, _, bus = setup
        client = bus.connect(platform="delta")
        assert engine.peek() == float("inf")  # nothing scheduled

    def test_unmatched_reply_is_warned_about_not_delivered(self, setup,
                                                           monkeypatch):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        echo(server, lambda payload: "late")
        client = bus.connect(platform="delta")
        reply = client.request(server.address, "ping")
        assert client.cancel_request(reply)
        warned = []
        monkeypatch.setattr("repro.comm.bus.log.warning",
                            lambda fmt, *args: warned.append(fmt % args))
        engine.run(until=1.0)
        assert not reply.triggered
        assert len(warned) == 1 and "unmatched reply" in warned[0]

    def test_cancelling_one_of_many_pending_requests_leaves_the_rest(
            self, setup, monkeypatch):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        echo(server)
        client = bus.connect(platform="delta")
        replies = [client.request(server.address, i) for i in range(1000)]

        class Unscannable(dict):
            def __iter__(self):
                raise AssertionError("cancel_request scanned the pending")
            items = values = keys = __iter__
        client._pending = Unscannable(client._pending)
        victim = replies[500]
        assert client.cancel_request(victim)
        assert not client.cancel_request(victim)   # already abandoned
        assert not client.cancel_request(engine.event())
        assert len(client._pending) == 999
        warned = []
        monkeypatch.setattr("repro.comm.bus.log.warning",
                            lambda fmt, *args: warned.append(fmt % args))
        engine.run(until=1.0)
        assert not victim.triggered
        assert [r.value.payload for r in replies if r is not victim] \
            == [i for i in range(1000) if i != 500]
        assert len(client._pending) == 0
        assert len(warned) == 1 and "unmatched reply" in warned[0] \
            and "corr=500>" in warned[0]

    def test_handle_with_takes_over_the_backlog_oldest_first(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")
        client.request(server.address, "first")
        engine.run(until=1.0)
        client.request(server.address, "second")
        engine.run(until=2.0)
        assert len(server._backlog) == 2
        seen = []
        server.handle_with(lambda msg: seen.append(msg.payload))
        assert seen == ["first", "second"] and not server._backlog
        client.request(server.address, "third")
        engine.run(until=3.0)
        assert seen == ["first", "second", "third"] and not server._backlog

    def test_raising_request_handler_surfaces_from_run(self, setup):
        engine, _, bus = setup
        server = bus.bind("svc", platform="delta")
        client = bus.connect(platform="delta")

        def handler(msg):
            raise RuntimeError(f"cannot handle {msg.payload}")

        server.handle_with(handler)
        client.request(server.address, "this")
        with pytest.raises(RuntimeError, match="cannot handle this"):
            engine.run()
        assert (bus.sent_count, bus.delivered_count) == (1, 1)


class TestPubSub:
    def test_publish_reaches_all_subscribers(self, setup):
        engine, _, bus = setup
        got = []
        for tag in "ab":
            bus.subscribe("state", "delta",
                          lambda msg, tag=tag: got.append((tag, msg.payload)))
        fanout = bus.publish("state", {"task": "t1", "state": "DONE"})
        engine.run()
        assert fanout == 2
        assert sorted(tag for tag, _ in got) == ["a", "b"]

    def test_topic_isolation(self, setup):
        engine, _, bus = setup
        got = []
        bus.subscribe("control", "delta", got.append)
        bus.publish("state", "irrelevant")
        engine.run()
        assert got == [] and bus.sent_count == 0

    def test_cancelled_subscription_stops_delivery(self, setup):
        engine, _, bus = setup
        got = []
        sub = bus.subscribe("state", "delta", got.append)
        sub.cancel()
        assert bus.publish("state", "late") == 0
        engine.run()
        assert got == [] and bus._subs["state"] == []

    def test_publish_without_subscribers_is_noop(self, setup):
        _, _, bus = setup
        assert bus.publish("void", 1) == 0

    def test_message_timestamps_recorded(self, setup):
        engine, _, bus = setup
        got = []
        bus.subscribe("t", "delta", got.append)
        sender = bus.connect(platform="r3")
        bus.publish("t", "x", sender=sender.address)
        engine.run()
        (msg,) = got
        assert msg.sent_at == 0.0
        assert msg.received_at > msg.sent_at  # WAN latency applied


class TestPublish:
    """A publication is one flight per subscriber, in subscription order."""

    def test_fanout_sends_one_flight_per_subscriber(self, setup):
        engine, _, bus = setup
        got = [[] for _ in range(5)]
        for seen in got:
            bus.subscribe("state", "delta", seen.append)
        entries = engine.entries
        assert bus.publish("state", "payload") == 5
        assert engine.entries - entries == 5
        engine.run()
        assert [len(seen) for seen in got] == [1] * 5
        assert bus.delivered_count == 5

    def test_landings_keep_subscription_order(self, setup):
        engine, _, bus = setup
        got = []
        for i in range(4):
            bus.subscribe("state", "delta",
                          lambda msg, i=i: got.append((i, msg.payload)))
        bus.publish("state", "x")
        engine.run()
        assert got == [(0, "x"), (1, "x"), (2, "x"), (3, "x")]

    def test_a_cancelled_subscription_is_dropped_on_landing(self, setup):
        engine, _, bus = setup
        got = {"keep1": [], "doomed": [], "keep2": []}
        subs = {tag: bus.subscribe("state", "delta", seen.append)
                for tag, seen in got.items()}
        assert bus.publish("state", "late") == 3
        subs["doomed"].cancel()  # after publish, before its flight lands
        engine.run()
        assert [len(seen) for seen in got.values()] == [1, 0, 1]
        # the flight to the cancelled subscription is counted, as dropped
        assert (bus.sent_count, bus.delivered_count, bus.dropped_count) \
            == (3, 2, 1)

    def test_publication_on_the_wire_to_a_cancelled_subscription_is_dropped(
            self, setup):
        engine, _, bus = setup
        got = []
        sub = bus.subscribe("state", "delta", got.append)
        sender = bus.connect(platform="r3")
        bus.publish("state", "x", sender=sender.address)
        sub.cancel()                          # alone on its WAN leg
        engine.run()
        assert got == []
        assert (bus.sent_count, bus.delivered_count, bus.dropped_count) \
            == (1, 0, 1)

    def test_raising_subscriber_surfaces_from_run_and_the_next_lands_later(
            self, setup):
        # the kernel's rule: a raising entry surfaces from run(), and the
        # entries after it stay queued for the next run()
        engine, _, bus = setup
        got = []

        def crash(msg):
            raise RuntimeError(f"cannot consume {msg.payload}")

        bus.subscribe("state", "delta", got.append)
        bus.subscribe("state", "delta", crash)
        bus.subscribe("state", "delta", got.append)
        assert bus.publish("state", "this") == 3
        with pytest.raises(RuntimeError, match="cannot consume this"):
            engine.run()
        assert [msg.payload for msg in got] == ["this"]
        assert (bus.sent_count, bus.delivered_count, bus.dropped_count) \
            == (3, 2, 0)
        engine.run()
        assert [msg.payload for msg in got] == ["this", "this"]
        assert (bus.sent_count, bus.delivered_count, bus.dropped_count) \
            == (3, 3, 0)
        assert engine.peek() == float("inf")  # nothing left half-landed

    def test_distinct_delays_land_apart(self, setup):
        engine, _, bus = setup
        arrivals = {}
        for tag, platform in (("local", "r3"), ("remote", "delta")):
            bus.subscribe(
                "state", platform, lambda msg, tag=tag:
                arrivals.__setitem__(tag, msg.received_at))
        sender = bus.connect(platform="r3")
        bus.publish("state", "x", sender=sender.address)
        engine.run()
        # intra-platform delivery beats the WAN hop; both were charged
        assert 0 < arrivals["local"] < arrivals["remote"]
