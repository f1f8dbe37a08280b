"""Serving hosts: the software that holds a model and handles requests.

The paper uses Ollama "avoiding the complexities of alternatives that would
enable efficient parallelization on HPC (e.g., vLLM, TensorRT, or
DeepSpeed)" (§III), and notes that "services are single-threaded, and, as
such, they only handle one request at a time, queuing further incoming
requests" (§IV).  :class:`OllamaHost` reproduces exactly that.  The
future-work backend, :class:`VllmHost`, adds continuous batching and is used
by the serving ablation benchmark.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from .backend import InferenceResultPayload, ModelBackend, create_backend

__all__ = ["ServingHost", "OllamaHost", "VllmHost", "create_host", "HOSTS"]


class ServingHost:
    """Base host: request handling cost model around a :class:`ModelBackend`."""

    name = "base"
    #: concurrent worker dispatches the host can run (1 = serial queueing)
    max_concurrency: int = 1
    #: queued requests one dispatch may coalesce (1 = no batching)
    max_batch_size: int = 1

    #: request parse/deserialise: fixed + per-byte cost.  ZeroMQ framing and
    #: msgpack/JSON decode of sub-KB requests is single-digit µs; the paper
    #: measures the service component (queue+parse+serialize) *below* the
    #: 63 µs local network latency even under 16-client load (Fig. 4).
    PARSE_BASE_S = 3e-6
    PARSE_PER_BYTE_S = 1.0 / 1e9
    #: reply serialise
    SERIALIZE_BASE_S = 2e-6
    SERIALIZE_PER_BYTE_S = 1.0 / 1.2e9

    def __init__(self, backend: ModelBackend,
                 max_concurrency: Optional[int] = None,
                 max_batch_size: Optional[int] = None) -> None:
        self.backend = backend
        if max_concurrency is not None:
            if max_concurrency < 1:
                raise ValueError("max_concurrency must be >= 1")
            self.max_concurrency = max_concurrency
        if max_batch_size is not None:
            if max_batch_size < 1:
                raise ValueError("max_batch_size must be >= 1")
            self.max_batch_size = max_batch_size

    # -- cost components ---------------------------------------------------------
    def parse_time(self, nbytes: int, rng) -> float:
        jitter = float(max(0.2, rng.normal(1.0, 0.1)))
        return (self.PARSE_BASE_S + nbytes * self.PARSE_PER_BYTE_S) * jitter

    def serialize_time(self, nbytes: int, rng) -> float:
        jitter = float(max(0.2, rng.normal(1.0, 0.1)))
        return (self.SERIALIZE_BASE_S
                + nbytes * self.SERIALIZE_PER_BYTE_S) * jitter

    def load_time(self, rng, concurrent_loads: int = 1,
                  fs_bandwidth_gbps: float = 2.0,
                  fs_aggregate_gbps: float = 100.0) -> float:
        return self.backend.load_time(rng, concurrent_loads,
                                      fs_bandwidth_gbps, fs_aggregate_gbps)

    def infer(self, prompt: str, rng,
              params: Optional[Dict[str, Any]] = None,
              ) -> Tuple[InferenceResultPayload, float]:
        """One inference, alone on the host."""
        return self.backend.infer(prompt, rng, params)

    def infer_batch(self, prompts: Sequence[str], rng,
                    params_list: Optional[Sequence[Optional[Dict[str, Any]]]]
                    = None, n_active: int = 1,
                    ) -> Tuple[List[InferenceResultPayload], float]:
        """One coalesced dispatch under *n_active* concurrent dispatches."""
        return self.backend.infer_batch(prompts, rng, params_list)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} model={self.backend.name}>"


class OllamaHost(ServingHost):
    """Single-threaded host: one request at a time, FIFO queueing (§IV)."""

    name = "ollama"
    max_concurrency = 1
    max_batch_size = 1


#: per-extra-request slowdown of a continuous-batching host
BATCH_PENALTY = 0.12


class VllmHost(ServingHost):
    """Continuous-batching host (the paper's future-work serving tier).

    Running *b* requests concurrently slows each one down only mildly
    (``1 + BATCH_PENALTY*(b-1)``), so aggregate throughput grows nearly
    linearly until ``max_concurrency`` -- the behaviour that motivates
    replacing Ollama with vLLM/TensorRT/DeepSpeed (§IV-E).
    """

    name = "vllm"
    max_concurrency = 8
    max_batch_size = 8

    def infer_batch(self, prompts, rng, params_list=None, n_active: int = 1):
        payloads, span = self.backend.infer_batch(prompts, rng, params_list)
        # Other concurrently-running dispatches contend for the same GPU.
        slowdown = 1.0 + BATCH_PENALTY * max(0, n_active - 1)
        return payloads, span * slowdown


HOSTS = {
    "ollama": OllamaHost,
    "vllm": VllmHost,
}


def create_host(backend_name: str, model_name: str,
                max_concurrency: Optional[int] = None,
                max_batch_size: Optional[int] = None) -> ServingHost:
    """Build a host of kind *backend_name* serving *model_name*."""
    try:
        host_cls = HOSTS[backend_name]
    except KeyError:
        raise KeyError(
            f"unknown serving backend {backend_name!r}; "
            f"known: {sorted(HOSTS)}") from None
    return host_cls(create_backend(model_name),
                    max_concurrency=max_concurrency,
                    max_batch_size=max_batch_size)
