"""Real TCP transport: JSON-lines request/reply over sockets.

The simulation bus (:mod:`repro.comm.bus`) models communication; this module
provides *actual* networking so the examples can demonstrate genuinely
remote services (the paper's R3 scenario exposes models "via REST and ZeroMQ
interfaces").  Protocol: one JSON object per line, request in, reply out.

Kept deliberately small: a threaded server wrapping a handler callable, and
a client with per-request connections and timeouts.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Any, Callable, Dict, Optional, Tuple

from ..utils.log import get_logger

__all__ = ["TcpServiceServer", "TcpServiceClient", "RemoteError"]

log = get_logger("comm.tcp")

#: seconds a :class:`TcpServiceClient` waits to connect and for a reply
TIMEOUT_S = 10.0


class RemoteError(Exception):
    """Raised client-side when the server reports a handler failure."""


class _Handler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        server: "TcpServiceServer" = self.server.owner  # type: ignore[attr-defined]
        for line in self.rfile:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                self._send({"ok": False, "error": f"bad request: {exc}"})
                continue
            try:
                result = server.handler(request)
                self._send({"ok": True, "result": result})
            except Exception as exc:  # handler errors travel to the client
                log.exception("handler failed")
                self._send({"ok": False, "error": str(exc)})

    def _send(self, obj: Dict[str, Any]) -> None:
        data = json.dumps(obj).encode("utf-8") + b"\n"
        self.wfile.write(data)
        self.wfile.flush()


class _ThreadingServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class TcpServiceServer:
    """A threaded JSON-lines server exposing ``handler(request) -> reply``.

    Usage::

        server = TcpServiceServer(handler=my_model.handle)
        server.start()            # binds an ephemeral port
        ... TcpServiceClient(*server.endpoint).request({...}) ...
        server.stop()
    """

    def __init__(self, handler: Callable[[Dict[str, Any]], Any],
                 host: str = "127.0.0.1", port: int = 0) -> None:
        self.handler = handler
        self._server = _ThreadingServer((host, port), _Handler)
        self._server.owner = self  # type: ignore[attr-defined]
        self._thread: Optional[threading.Thread] = None

    @property
    def endpoint(self) -> Tuple[str, int]:
        """(host, port) the server is bound to."""
        return self._server.server_address[:2]

    def start(self) -> "TcpServiceServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True, name="tcp-service-server")
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=2.0)
        self._thread = None

    def __enter__(self) -> "TcpServiceServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


class TcpServiceClient:
    """Per-request JSON-lines client with timeouts."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port

    def request(self, payload: Dict[str, Any]) -> Any:
        """Send one request; returns the handler result or raises."""
        with socket.create_connection((self.host, self.port),
                                      timeout=TIMEOUT_S) as sock:
            sock.sendall(json.dumps(payload).encode("utf-8") + b"\n")
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
                if data.endswith(b"\n"):
                    break
        raw = b"".join(chunks).strip()
        if not raw:
            raise RemoteError("connection closed without a reply")
        reply = json.loads(raw.decode("utf-8"))
        if not reply.get("ok"):
            raise RemoteError(reply.get("error", "unknown remote error"))
        return reply.get("result")

    def ping(self) -> bool:
        """Liveness probe: can we open a connection?"""
        try:
            with socket.create_connection((self.host, self.port),
                                          timeout=TIMEOUT_S):
                return True
        except OSError:
            return False
