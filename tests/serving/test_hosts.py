"""Tests for serving hosts (Ollama-like vs vLLM-like)."""

import numpy as np
import pytest

from repro.serving import (
    NoopModel,
    OllamaHost,
    VllmHost,
    create_host,
    hosts,
)
from repro.serving.backend import LlamaModel
from repro.sim import RngHub


@pytest.fixture
def rng():
    return RngHub(0).stream("host")


class TestOllamaHost:
    def test_single_threaded(self):
        host = OllamaHost(NoopModel())
        assert host.max_concurrency == 1

    def test_parse_and_serialize_costs_are_small(self, rng):
        host = OllamaHost(NoopModel())
        assert 0 < host.parse_time(500, rng) < 1e-3
        assert 0 < host.serialize_time(500, rng) < 1e-3

    def test_parse_scales_with_size(self, rng):
        host = OllamaHost(NoopModel())
        small = np.mean([host.parse_time(100, rng) for _ in range(50)])
        large = np.mean([host.parse_time(10_000_000, rng) for _ in range(50)])
        assert large > small * 10

    def test_infer_delegates_to_backend(self, rng):
        host = OllamaHost(LlamaModel())
        payload, duration = host.infer("prompt", rng, {"max_tokens": 64})
        assert payload.completion_tokens > 0
        assert duration > 0

    def test_load_time_delegates(self, rng):
        host = OllamaHost(LlamaModel())
        assert host.load_time(rng, 1, 8.0) > 5.0


class TestVllmHost:
    def test_default_concurrency(self):
        assert VllmHost(NoopModel()).max_concurrency == 8

    def test_batching_penalty_applied(self, rng, monkeypatch):
        monkeypatch.setattr(hosts, "BATCH_PENALTY", 0.2)
        host = VllmHost(LlamaModel())
        solo = np.mean([host.infer_batch(["p"], rng, [{"max_tokens": 64}],
                                         n_active=1)[1] for _ in range(30)])
        batched = np.mean([host.infer_batch(["p"], rng, [{"max_tokens": 64}],
                                            n_active=8)[1]
                           for _ in range(30)])
        assert batched == pytest.approx(solo * 2.4, rel=0.2)

    def test_throughput_advantage_over_serial(self, rng):
        """8 concurrent requests on vLLM finish faster in aggregate."""
        llama = LlamaModel()
        serial = OllamaHost(llama)
        batchy = VllmHost(llama)
        n = 8
        serial_total = sum(serial.infer("p", rng, {"max_tokens": 64})[1]
                           for _ in range(n))
        # batched: all run concurrently; makespan ~ slowest single request
        batched_times = [batchy.infer_batch(["p"], rng, [{"max_tokens": 64}],
                                            n_active=n)[1] for _ in range(n)]
        assert max(batched_times) < serial_total / 2


class TestHostFactory:
    def test_create_by_names(self):
        host = create_host("ollama", "llama-8b")
        assert isinstance(host, OllamaHost)
        assert host.backend.name == "llama-8b"

    def test_concurrency_override(self):
        host = create_host("vllm", "noop", max_concurrency=4)
        assert host.max_concurrency == 4

    def test_unknown_host_rejected(self):
        with pytest.raises(KeyError, match="unknown serving backend"):
            create_host("tensorrt", "noop")

    def test_invalid_concurrency_rejected(self):
        with pytest.raises(ValueError):
            create_host("ollama", "noop", max_concurrency=0)
