"""ML serving substrate: model backends and serving hosts.

Backends define *what* a model costs (load, per-request inference) and what
it returns (really generated text); hosts define *how* requests are handled
(single-threaded Ollama-like vs. batching vLLM-like).
"""

from .backend import (
    BACKENDS,
    InferenceResultPayload,
    LlamaModel,
    ModelBackend,
    NoopModel,
    create_backend,
)
from .generator import MarkovGenerator, default_generator, tokenize
from .hosts import HOSTS, OllamaHost, ServingHost, VllmHost, create_host

__all__ = [
    "BACKENDS",
    "InferenceResultPayload",
    "LlamaModel",
    "ModelBackend",
    "NoopModel",
    "create_backend",
    "MarkovGenerator",
    "default_generator",
    "tokenize",
    "HOSTS",
    "OllamaHost",
    "ServingHost",
    "VllmHost",
    "create_host",
]
