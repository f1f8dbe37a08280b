"""Tests for the real TCP JSON-lines transport."""

import threading
import time
from unittest.mock import patch

import pytest

from repro.comm import RemoteError, TcpServiceClient, TcpServiceServer, tcp


def echo_handler(request):
    return {"echo": request}


class TestTcpTransport:
    def test_round_trip(self):
        with TcpServiceServer(echo_handler) as server:
            client = TcpServiceClient(*server.endpoint)
            assert client.request({"x": 1}) == {"echo": {"x": 1}}

    def test_multiple_sequential_requests(self):
        with TcpServiceServer(lambda r: r["a"] + r["b"]) as server:
            client = TcpServiceClient(*server.endpoint)
            assert [client.request({"a": i, "b": 1}) for i in range(5)] == \
                [1, 2, 3, 4, 5]

    def test_concurrent_clients(self):
        with TcpServiceServer(lambda r: r["i"] * 2) as server:
            results = {}
            def work(i):
                client = TcpServiceClient(*server.endpoint)
                results[i] = client.request({"i": i})
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert results == {i: i * 2 for i in range(8)}

    def test_handler_error_surfaces_as_remote_error(self):
        def bad_handler(request):
            raise ValueError("deliberate")
        with TcpServiceServer(bad_handler) as server:
            client = TcpServiceClient(*server.endpoint)
            with pytest.raises(RemoteError, match="deliberate"):
                client.request({})

    def test_client_timeout_raises_and_the_server_keeps_serving(self):
        def slow_handler(request):
            time.sleep(0.5)
            return {"echo": request}

        with TcpServiceServer(slow_handler) as server:
            impatient = TcpServiceClient(*server.endpoint)
            start = time.monotonic()
            with patch.object(tcp, "TIMEOUT_S", 0.05), \
                    pytest.raises(OSError):  # socket.timeout
                impatient.request({"x": 1})
            assert time.monotonic() - start < 0.4
            # the next request is answered
            client = TcpServiceClient(*server.endpoint)
            assert client.request({"x": 2}) == {"echo": {"x": 2}}

    def test_ping_liveness(self):
        server = TcpServiceServer(echo_handler).start()
        client = TcpServiceClient(*server.endpoint)
        assert client.ping()
        server.stop()
        assert not client.ping()

    def test_double_start_rejected(self):
        server = TcpServiceServer(echo_handler).start()
        try:
            with pytest.raises(RuntimeError):
                server.start()
        finally:
            server.stop()

    def test_stop_idempotent(self):
        server = TcpServiceServer(echo_handler).start()
        server.stop()
        server.stop()  # no raise
