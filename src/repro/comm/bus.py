"""The in-process message bus: REQ/REP sockets and PUB/SUB channels.

This is the reproduction's stand-in for RADICAL-Pilot's ZeroMQ communication
infrastructure (§III: "we implement a Service Base Class ... and use the
ZeroMQ communication infrastructure to enable API calls between services and
clients").  The same patterns are provided:

* :class:`ServerSocket` / :class:`ClientSocket` -- REQ/REP request-reply;
* :meth:`MessageBus.publish` / :meth:`MessageBus.subscribe` -- PUB/SUB topics
  (used for state notifications, control commands and heartbeats).

Every delivery is charged the fabric's latency+bandwidth cost between the
endpoints' platforms, so local (intra-platform) and remote (WAN) exchanges
reproduce the paper's 0.063 ms vs 0.47 ms regimes.  Delays run on the
simulation engine.

There is one delivery contract.  A wire leg is one engine entry, and
landing is the hand-over: inside that entry a reply resolves its request
event, a request goes to the handler the server socket's owner installed
(:meth:`ServerSocket.handle_with`), a publication to the handler given to
:meth:`MessageBus.subscribe`.  Nothing pulls: there is no inbox, no accept
loop and no process per message.  A consumer that raises surfaces from
``run()`` like an unhandled process crash.

Every flight is counted when it leaves (``sent_count``) and when it ends:
``delivered_count`` if it was handed over, ``dropped_count`` if its endpoint
closed or its subscription was cancelled first.  On a drained engine
``delivered + dropped == sent``.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple, Union

from ..hpc.network import Fabric
from ..sim.engine import SimulationEngine
from ..sim.events import Event
from ..utils.ids import IdRegistry
from ..utils.log import get_logger
from .message import Address, Message

__all__ = ["MessageBus", "ServerSocket", "ClientSocket", "Subscription"]

log = get_logger("comm.bus")


class ServerSocket:
    """REP-style socket: requests land here, replies leave from here.

    A landed request is consumed where it lands, by the handler its owner
    installs with :meth:`handle_with`; what lands between ``bind`` and that
    call (a registry round trip apart) waits in a backlog.
    """

    def __init__(self, bus: "MessageBus", address: Address) -> None:
        self.bus = bus
        self.address = address
        self._backlog: Deque[Message] = deque()
        self._receive: Callable[[Message], None] = self._backlog.append

    def handle_with(self, handler: Callable[[Message], None]) -> None:
        """Consume requests with *handler* as they land.

        Whatever landed since ``bind`` is handed over first, oldest first.
        """
        self._receive = handler
        backlog = self._backlog
        while backlog:
            handler(backlog.popleft())

    def reply(self, request: Message, payload: Any,
              meta: Optional[Dict[str, Any]] = None) -> None:
        """Send a reply for *request* back to its sender; it owns *meta*."""
        msg = request.make_reply(payload, sender=self.address, meta=meta)
        self.bus._deliver(msg)

    def close(self) -> None:
        self.bus._unbind(self.address.name)


class _ReplyEvent(Event):
    """The event a request's reply resolves; it carries the request's
    correlation id, so abandoning it is one dict operation."""

    __slots__ = ("corr",)


class ClientSocket:
    """REQ-style socket: issues requests, resolves reply events.

    A landing reply is paired with its outstanding request event via the
    correlation id and resolves it directly.
    """

    def __init__(self, bus: "MessageBus", address: Address) -> None:
        self.bus = bus
        self.address = address
        self._pending: Dict[int, _ReplyEvent] = {}
        self._corr = itertools.count()

    def _receive(self, msg: Message) -> None:
        event = self._pending.pop(msg.corr_id, None)
        if event is None:
            log.warning("%s: unmatched reply %r", self.address, msg)
            return
        event.succeed(msg)

    def request(self, target: Address, payload: Any) -> Event:
        """Send *payload* to *target*; the returned event yields the reply."""
        corr = next(self._corr)
        event = self._pending[corr] = _ReplyEvent(self.bus.engine)
        event.corr = corr
        self.bus._deliver(Message("request", payload, self.address, target,
                                  None, corr))
        return event

    def cancel_request(self, event: Event) -> bool:
        """Abandon an outstanding request (e.g. after a client timeout).

        The correlation entry is removed so a late reply is dropped on
        arrival instead of resolving an event nobody waits on.  Returns
        True if the request was still pending.
        """
        corr = getattr(event, "corr", None)
        if corr is None or self._pending.get(corr) is not event:
            return False
        del self._pending[corr]
        return True


_Socket = Union[ServerSocket, ClientSocket]


class Subscription:
    """A topic subscription: *handler* is called with each publication."""

    def __init__(self, bus: "MessageBus", topic: str, platform: str,
                 handler: Callable[[Message], None]) -> None:
        self.bus = bus
        self.topic = topic
        self.platform = platform
        self.handler = handler
        self.active = True

    def cancel(self) -> None:
        """Stop delivery; what is still on the wire is dropped on landing."""
        self.active = False
        self.bus._unsubscribe(self)


class MessageBus:
    """Routes messages between named endpoints with fabric-modelled delays."""

    def __init__(self, engine: SimulationEngine, fabric: Fabric,
                 ids: IdRegistry) -> None:
        self.engine = engine
        self.fabric = fabric
        #: names anonymous client sockets (the session's: same seed, same
        #: names)
        self.ids = ids
        #: name -> the socket bound to it (the receiver of what lands there)
        self._endpoints: Dict[str, _Socket] = {}
        self._subs: Dict[str, List[Subscription]] = {}
        #: flights: one per message, one per subscriber of a publication
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0

    # -- endpoint management -----------------------------------------------------
    def bind(self, name: str, platform: str) -> ServerSocket:
        """Create a server endpoint reachable at *name*."""
        address = self._register(name, platform)
        socket = ServerSocket(self, address)
        self._endpoints[name] = socket
        return socket

    def connect(self, platform: str, name: Optional[str] = None) -> ClientSocket:
        """Create a client endpoint hosted on *platform*."""
        name = name or self.ids.generate("client-sock")
        address = self._register(name, platform)
        socket = ClientSocket(self, address)
        self._endpoints[name] = socket
        return socket

    def _register(self, name: str, platform: str) -> Address:
        if name in self._endpoints:
            raise ValueError(f"endpoint name {name!r} already bound")
        if platform not in self.fabric.platforms():
            raise KeyError(
                f"platform {platform!r} not registered on the fabric")
        return Address(name=name, platform=platform)

    def _unbind(self, name: str) -> None:
        self._endpoints.pop(name, None)

    # -- point-to-point delivery ---------------------------------------------------
    def _deliver(self, msg: Message) -> None:
        """Schedule delivery of *msg* after the fabric-sampled delay."""
        if msg.recipient is None:
            raise ValueError(f"message without recipient: {msg!r}")
        self.sent_count += 1
        socket = self._endpoints.get(msg.recipient.name)
        if socket is None:
            self._drop(msg)
            return
        src = msg.sender.platform if msg.sender else msg.recipient.platform
        dst = msg.recipient.platform
        delay = self.fabric.transfer_time(src, dst, msg.nbytes)
        msg.sent_at = self.engine.now
        # Leaf wait: deliver via the engine's pooled direct-callback path
        # instead of spawning a generator process per message.
        self.engine.call_later(delay, self._land, (msg, socket))

    def _land(self, flight: Tuple[Message, _Socket]) -> None:
        msg, socket = flight
        if self._endpoints.get(msg.recipient.name) is not socket:
            # closed (or rebound) while the message was on the wire
            self._drop(msg)
            return
        msg.received_at = self.engine.now
        self.delivered_count += 1
        socket._receive(msg)

    def _drop(self, msg: Message) -> None:
        # Recipient disappeared (service terminated): drop, like a ZMQ
        # socket whose peer is gone.
        self.dropped_count += 1
        log.warning("dropping message to unbound endpoint %s", msg.recipient)

    # -- pub/sub -------------------------------------------------------------------
    def subscribe(self, topic: str, platform: str,
                  handler: Callable[[Message], None]) -> Subscription:
        """Subscribe to *topic*: *handler* is called with each publication
        inside the entry it lands in, after the fabric latency."""
        sub = Subscription(self, topic, platform, handler)
        self._subs.setdefault(topic, []).append(sub)
        return sub

    def _unsubscribe(self, sub: Subscription) -> None:
        subs = self._subs.get(sub.topic, [])
        if sub in subs:
            subs.remove(sub)

    def publish(self, topic: str, payload: Any,
                sender: Optional[Address] = None) -> int:
        """Publish to all current subscribers; returns the fan-out count.

        Each subscriber gets its own message and its own flight, sent in
        subscription order after the fabric delay to its platform (zero
        for a sender-less publish).
        """
        subs = self._subs.get(topic, ())
        self.sent_count += len(subs)
        src = sender.platform if sender else None
        now = self.engine.now
        for sub in subs:
            msg = Message(kind="pub", payload=payload, sender=sender,
                          topic=topic)
            delay = 0.0
            if src is not None:
                delay = self.fabric.transfer_time(src, sub.platform,
                                                  msg.nbytes)
            msg.sent_at = now
            self.engine.call_later(delay, self._land_pub, (msg, sub))
        return len(subs)

    def _land_pub(self, flight: Tuple[Message, Subscription]) -> None:
        msg, sub = flight
        if not sub.active:
            # cancelled while the publication was on the wire
            self.dropped_count += 1
            return
        msg.received_at = self.engine.now
        self.delivered_count += 1
        sub.handler(msg)
