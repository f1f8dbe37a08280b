"""Message envelopes and payload size accounting.

Every exchange on the bus is a :class:`Message`: a routable envelope with a
correlation id (to pair requests with replies), sender/recipient addresses
and wire-size estimation.  Size matters because the fabric charges
``latency + nbytes/bandwidth`` per delivery -- a NOOP request is a few hundred
bytes, a staged image batch is megabytes.

The size *is* the pickle length (:func:`estimate_size`), so the pickled form
of whatever travels in a payload -- :class:`Address` and :class:`LoadReport`
as dataclasses, :class:`~repro.core.registry.ServiceInfo`, request dicts --
is part of the simulated wire format: giving one of them another
representation (a ``NamedTuple``, ``__slots__`` with ``__getstate__``, a
renamed field) changes message sizes and with them every simulated latency.
Make such a change as a modelling change, never as an optimisation.

The envelope itself never travels: only ``payload`` is sized, so
:class:`Message` is a plain record with ``__slots__`` and no dataclass
machinery, and it compares by identity.  A reply takes ownership of the
``meta`` dict it is built with (:meth:`Message.make_reply` does not copy
it), so whoever builds a reply hands over a fresh dict.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import Any, Dict, Optional

__all__ = ["Address", "Message", "LoadReport", "TELEMETRY_TOPIC",
           "estimate_size"]

_MSG_COUNTER = itertools.count()

#: Pub/sub topic on which every service instance publishes its
#: :class:`LoadReport` alongside the per-instance heartbeat topic.  The
#: :class:`~repro.core.registry.EndpointRegistry` subscribes here so load
#: balancers and the autoscaler can consume fleet-wide telemetry.
TELEMETRY_TOPIC = "service.telemetry"

#: Fixed framing overhead per message (headers, envelope), in bytes.
ENVELOPE_OVERHEAD = 256


def estimate_size(payload: Any) -> int:
    """Estimate the wire size of *payload* in bytes.

    Uses the pickle encoding length (the bus serialises with pickle, like
    mpi4py's lowercase communication methods) plus envelope overhead.
    Objects that cannot be pickled are charged the overhead only -- they can
    still travel in-process, mirroring ZeroMQ inproc transports.
    """
    try:
        return len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)) \
            + ENVELOPE_OVERHEAD
    except Exception:
        return ENVELOPE_OVERHEAD


@dataclass(frozen=True)
class Address:
    """A bus endpoint address: a unique name plus its hosting platform.

    The platform is what the fabric uses to sample latency for deliveries
    to/from this endpoint.
    """

    name: str
    platform: str

    def __str__(self) -> str:
        return f"{self.name}@{self.platform}"


@dataclass
class LoadReport:
    """Per-instance load telemetry carried on heartbeat messages.

    ``ewma_service_s`` is the exponentially-weighted moving average of the
    *marginal* per-request service cost (batch busy span divided by batch
    size), so ``queue_depth * ewma_service_s / workers`` estimates the
    queueing delay a newly-admitted request would see.
    """

    uid: str
    t: float                      # simulation time the report was taken
    queue_depth: int              # admitted requests waiting for a worker
    in_flight: int                # requests currently being processed
    ewma_service_s: float         # EWMA marginal per-request service time
    handled: int                  # requests completed since start
    shed: int                     # requests rejected with a busy reply
    workers: int                  # concurrent worker loops
    max_batch_size: int           # per-dispatch coalescing limit
    queue_bound: int = 0          # admission bound (0 = unbounded)

    @property
    def backlog(self) -> int:
        """Requests admitted but not yet completed."""
        return self.queue_depth + self.in_flight

    @property
    def est_queue_delay_s(self) -> float:
        """Estimated wait for a newly-admitted request (seconds)."""
        return self.queue_depth * self.ewma_service_s / max(1, self.workers)


class Message:
    """One envelope travelling on the bus."""

    __slots__ = ("kind", "payload", "sender", "recipient", "topic",
                 "corr_id", "meta", "uid", "sent_at", "received_at")

    def __init__(self, kind: str, payload: Any,
                 sender: Optional[Address] = None,
                 recipient: Optional[Address] = None,
                 topic: Optional[str] = None,
                 corr_id: Optional[int] = None,
                 meta: Optional[Dict[str, Any]] = None,
                 uid: Optional[int] = None,
                 sent_at: Optional[float] = None,
                 received_at: Optional[float] = None) -> None:
        self.kind = kind        # "request" | "reply" | "pub"
        self.payload = payload
        self.sender = sender
        self.recipient = recipient
        self.topic = topic      # for pub/sub traffic
        self.corr_id = corr_id  # pairs replies with requests
        #: server-side bookkeeping attached to replies (timestamps, etc.)
        self.meta = {} if meta is None else meta
        self.uid = next(_MSG_COUNTER) if uid is None else uid
        self.sent_at = sent_at
        self.received_at = received_at

    @property
    def nbytes(self) -> int:
        """Wire-size estimate (cached after first computation)."""
        cached = self.meta.get("_nbytes")
        if cached is None:
            cached = estimate_size(self.payload)
            self.meta["_nbytes"] = cached
        return cached

    def make_reply(self, payload: Any, sender: Address,
                   meta: Optional[Dict[str, Any]] = None) -> "Message":
        """Build the reply envelope for this request; it owns *meta*."""
        if self.sender is None:
            raise ValueError("cannot reply to a message without a sender")
        corr_id = self.corr_id
        return Message("reply", payload, sender, self.sender, None,
                       self.uid if corr_id is None else corr_id, meta)

    def __repr__(self) -> str:
        return (f"<Message #{self.uid} {self.kind} "
                f"{self.sender}->{self.recipient} corr={self.corr_id}>")
