"""Communication substrate: the ZeroMQ-equivalent bus plus real TCP.

* :class:`MessageBus` -- REQ/REP and PUB/SUB with fabric-modelled delivery
  delays; runs on the simulation engine.
* :class:`TcpServiceServer` / :class:`TcpServiceClient` -- actual sockets for
  genuinely remote services in examples and integration tests.
"""

from .message import Address, Message, estimate_size
from .bus import ClientSocket, MessageBus, ServerSocket, Subscription
from .tcp import RemoteError, TcpServiceClient, TcpServiceServer

__all__ = [
    "Address",
    "Message",
    "estimate_size",
    "ClientSocket",
    "MessageBus",
    "ServerSocket",
    "Subscription",
    "RemoteError",
    "TcpServiceClient",
    "TcpServiceServer",
]
