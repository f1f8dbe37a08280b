"""Tests for message envelopes and size estimation."""

import pytest

from repro.comm import Address, Message, estimate_size
from repro.comm.message import ENVELOPE_OVERHEAD


class TestEstimateSize:
    def test_small_payload_dominated_by_envelope(self):
        assert estimate_size(None) >= ENVELOPE_OVERHEAD

    def test_larger_payload_larger_size(self):
        small = estimate_size("x")
        big = estimate_size("x" * 100_000)
        assert big > small + 90_000

    def test_unpicklable_payload_falls_back_to_overhead(self):
        unpicklable = lambda: None  # noqa: E731 - locals don't pickle
        assert estimate_size(unpicklable) == ENVELOPE_OVERHEAD


class TestMessage:
    def test_nbytes_cached(self):
        msg = Message(kind="request", payload=list(range(100)))
        first = msg.nbytes
        assert msg.meta["_nbytes"] == first
        assert msg.nbytes == first

    def test_make_reply_routes_back(self):
        client = Address("client.0", "delta")
        server = Address("svc.0", "r3")
        req = Message(kind="request", payload="ping", sender=client,
                      recipient=server, corr_id=7)
        rep = req.make_reply("pong", sender=server, meta={"t": 1.0})
        assert rep.recipient == client
        assert rep.sender == server
        assert rep.corr_id == 7
        assert rep.kind == "reply"
        assert rep.meta["t"] == 1.0

    def test_reply_without_sender_rejected(self):
        msg = Message(kind="request", payload=1)
        with pytest.raises(ValueError):
            msg.make_reply("x", sender=Address("s", "delta"))

    def test_reply_falls_back_to_uid_for_correlation(self):
        client = Address("c", "delta")
        req = Message(kind="request", payload=1, sender=client)
        rep = req.make_reply("r", sender=Address("s", "delta"))
        assert rep.corr_id == req.uid

    def test_address_str(self):
        assert str(Address("svc.0003", "frontier")) == "svc.0003@frontier"

    def test_uids_unique(self):
        a = Message(kind="pub", payload=1)
        b = Message(kind="pub", payload=1)
        assert a.uid != b.uid

    def test_a_given_uid_is_kept_and_takes_nothing_from_the_counter(self):
        a = Message("pub", 1)
        b = Message("pub", 1, uid=-7)
        c = Message("pub", 1)
        assert b.uid == -7 and c.uid == a.uid + 1

    def test_positional_order_and_defaults_are_the_dataclass_ones(self):
        client, server = Address("c", "delta"), Address("s", "r3")
        meta = {"t": 1.0}
        msg = Message("request", "x", client, server, "topic", 3, meta, 9,
                      1.5, 2.5)
        assert (msg.kind, msg.payload, msg.sender, msg.recipient, msg.topic,
                msg.corr_id, msg.uid, msg.sent_at, msg.received_at) \
            == ("request", "x", client, server, "topic", 3, 9, 1.5, 2.5)
        assert msg.meta is meta
        bare = Message("pub", None)
        assert (bare.sender, bare.recipient, bare.topic, bare.corr_id,
                bare.sent_at, bare.received_at) == (None,) * 6
        assert bare.meta == {} and bare.meta is not Message("pub", 0).meta

    def test_envelope_is_slotted(self):
        msg = Message(kind="request", payload=1)
        assert not hasattr(msg, "__dict__")
        with pytest.raises(AttributeError):
            msg.extra = 1

    def test_messages_compare_by_identity(self):
        a = Message("pub", 1, uid=0)
        b = Message("pub", 1, uid=0)
        assert a != b and a == a and len({a, b}) == 2

    def test_reply_owns_the_meta_it_is_given(self):
        req = Message("request", 1, sender=Address("c", "delta"))
        meta = {"t": 1.0}
        rep = req.make_reply("r", sender=Address("s", "delta"), meta=meta)
        assert rep.meta is meta
        assert req.make_reply("r", sender=Address("s", "delta")).meta == {}
