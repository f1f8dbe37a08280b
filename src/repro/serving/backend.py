"""Model backends: what a service instance loads and runs.

A :class:`ModelBackend` bundles a *cost model* (load time, per-request
inference time) with an *inference function* (what payload comes back).
Two backends reproduce the paper's experiments:

* :class:`NoopModel` -- Experiment 2's NOOP: "a NOOP model, which will
  immediately reply without performing any actual inference" (§IV).
* :class:`LlamaModel` -- Experiments 1 & 3's ``llama-8b``: load time sized by
  weight volume over shared-filesystem bandwidth (dominating bootstrap,
  Fig. 3) and inference time from a prefill+decode token model (dominating
  response time, Fig. 6).  Text is really generated (Markov sampler).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .generator import count_tokens, default_generator

__all__ = [
    "InferenceResultPayload",
    "ModelBackend",
    "NoopModel",
    "LlamaModel",
    "create_backend",
    "BACKENDS",
]


@dataclass
class InferenceResultPayload:
    """What a backend returns for one request."""

    text: str
    prompt_tokens: int
    completion_tokens: int
    model: str
    extra: Dict[str, Any] = field(default_factory=dict)


class ModelBackend:
    """Base class for servable models."""

    #: canonical model name (e.g. "llama-8b")
    name: str = "base"

    def load_time(self, rng, concurrent_loads: int = 1,
                  fs_bandwidth_gbps: float = 2.0,
                  fs_aggregate_gbps: float = 100.0) -> float:
        """Seconds to load+initialise under *concurrent_loads* contention.

        ``fs_bandwidth_gbps`` is the per-client read cap;
        ``fs_aggregate_gbps`` the shared pool concurrent loaders divide.
        """
        raise NotImplementedError

    def infer(self, prompt: str, rng,
              params: Optional[Dict[str, Any]] = None,
              ) -> Tuple[InferenceResultPayload, float]:
        """Run one inference, a batch of one: returns (payload, modeled
        duration seconds)."""
        payloads, span = self.infer_batch([prompt], rng, [params])
        return payloads[0], span

    def infer_batch(self, prompts: Sequence[str], rng,
                    params_list: Optional[Sequence[Optional[Dict[str, Any]]]]
                    = None,
                    ) -> Tuple[List[InferenceResultPayload], float]:
        """Run a coalesced batch: returns (payloads, busy span seconds).

        All requests of a batch complete together after the returned span
        (the continuous-batching approximation).
        """
        raise NotImplementedError

    @staticmethod
    def _norm_params(prompts: Sequence[str],
                     params_list: Optional[Sequence[Optional[Dict[str, Any]]]]
                     ) -> Sequence[Optional[Dict[str, Any]]]:
        if params_list is None:
            return [None] * len(prompts)
        if len(params_list) != len(prompts):
            raise ValueError("params_list must match prompts in length")
        return params_list

    #: GPU memory the model occupies when resident (GB).
    gpu_mem_gb: float = 0.0


class NoopModel(ModelBackend):
    """Immediate-reply model for measuring pure service overhead (Exp 2)."""

    name = "noop"
    gpu_mem_gb = 0.0

    #: tiny fixed handling cost: a function call and a dict build
    NOOP_COST_S = 2e-6
    #: marginal cost of each additional request in a batch, as a fraction of
    #: NOOP_COST_S -- handling N no-ops together amortises the dispatch
    BATCH_MARGINAL_FRAC = 0.1

    def load_time(self, rng, concurrent_loads: int = 1,
                  fs_bandwidth_gbps: float = 2.0,
                  fs_aggregate_gbps: float = 100.0) -> float:
        # Starting the (empty) service runtime: python interpreter + imports.
        return float(max(0.05, rng.normal(0.5, 0.05)))

    def infer_batch(self, prompts, rng, params_list=None):
        if not prompts:
            raise ValueError("infer_batch needs at least one prompt")
        self._norm_params(prompts, params_list)
        payloads = [InferenceResultPayload(
            text="", prompt_tokens=count_tokens(p),
            completion_tokens=0, model=self.name) for p in prompts]
        span = self.NOOP_COST_S * (
            1.0 + self.BATCH_MARGINAL_FRAC * (len(prompts) - 1))
        return payloads, span


class LlamaModel(ModelBackend):
    """Synthetic Llama-class generative model with calibrated timing.

    Cost model (defaults sized for 8B params served on one A100/MI250X-class
    GPU by a simple host like Ollama):

    * weights: ``2 bytes * params`` (fp16) read from the shared filesystem at
      ``fs_bandwidth_gbps`` split across concurrent loaders, plus a fixed
      runtime-initialisation term -- this is the Fig. 3 ``init`` component
      (~40 s for 8B, mildly growing with contention);
    * inference: ``prompt_tokens / prefill_tps + completion_tokens /
      decode_tps`` with gaussian jitter -- seconds per request, dominating
      Fig. 6;
    * batched inference: prefill work is compute-bound and adds up linearly
      across the batch, while decode steps are memory-bandwidth-bound and
      run all sequences per step -- a batch of *b* decodes in
      ``max(completion_tokens) / decode_tps`` slowed only by
      ``1 + batch_decode_penalty * (b - 1)``.  Aggregate throughput thus
      grows sub-linearly in cost and near-linearly in requests, the
      continuous-batching behaviour of vLLM-class hosts.

    The size and the decode rate differ per model; the rest of the
    calibration is class constants.
    """

    #: prompt tokens per second (compute-bound prefill)
    prefill_tps = 3000.0
    #: mean runtime-initialisation seconds after the weights are read
    init_const_s = 8.0
    #: per-extra-sequence slowdown of a batched decode step
    batch_decode_penalty = 0.06

    def __init__(self, params_b: float = 8.0,
                 decode_tps: float = 35.0) -> None:
        if not params_b > 0:
            raise ValueError("params_b must be positive")
        self.params_b = params_b
        self.decode_tps = decode_tps
        self.name = f"llama-{int(params_b)}b"
        self.gpu_mem_gb = params_b * 2.0  # fp16 weights
        self._generator = default_generator()

    def load_time(self, rng, concurrent_loads: int = 1,
                  fs_bandwidth_gbps: float = 2.0,
                  fs_aggregate_gbps: float = 100.0) -> float:
        if concurrent_loads < 1:
            raise ValueError("concurrent_loads must be >= 1")
        weights_gb = self.gpu_mem_gb
        # Each loader reads at its per-client cap until the shared aggregate
        # pool saturates; beyond that point bandwidth divides evenly.
        effective_gbps = min(fs_bandwidth_gbps,
                             fs_aggregate_gbps / concurrent_loads)
        read_s = weights_gb / max(effective_gbps, 1e-3)
        init_s = max(1.0, rng.normal(self.init_const_s, self.init_const_s * 0.1))
        return float(read_s + init_s)

    def _sample_request(self, prompt: str, rng,
                        params: Optional[Dict[str, Any]],
                        ) -> InferenceResultPayload:
        """Sample one request's token counts and generated text."""
        params = params or {}
        max_tokens = int(params.get("max_tokens", 256))
        if max_tokens < 0:
            raise ValueError("max_tokens must be >= 0")
        prompt_tokens = count_tokens(prompt)
        # Sample the actual completion length: requests rarely use the cap.
        completion_tokens = int(min(
            max_tokens, max(1, rng.normal(0.75 * max_tokens,
                                          0.15 * max_tokens))))
        text = self._generator.generate(prompt, completion_tokens, rng)
        return InferenceResultPayload(
            text=text, prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens, model=self.name)

    def infer_batch(self, prompts, rng, params_list=None):
        if not prompts:
            raise ValueError("infer_batch needs at least one prompt")
        params_list = self._norm_params(prompts, params_list)
        payloads = [self._sample_request(p, rng, params)
                    for p, params in zip(prompts, params_list)]
        # Prefill is compute-bound: token work adds up across the batch.
        prefill_s = sum(p.prompt_tokens for p in payloads) / self.prefill_tps
        # Decode is bandwidth-bound: each step advances every sequence, so
        # the batch decodes in the longest sequence's step count with a mild
        # per-sequence penalty (KV-cache pressure).
        batch = len(payloads)
        decode_s = (max(p.completion_tokens for p in payloads)
                    / self.decode_tps
                    * (1.0 + self.batch_decode_penalty * (batch - 1)))
        span = (prefill_s + decode_s) * float(max(0.5, rng.normal(1.0, 0.05)))
        return payloads, float(span)


#: model-name -> factory
BACKENDS: Dict[str, Callable[[], ModelBackend]] = {
    "noop": NoopModel,
    "llama-8b": lambda: LlamaModel(params_b=8.0),
    "llama-70b": lambda: LlamaModel(params_b=70.0, decode_tps=8.0),
}

_LLAMA_RE = re.compile(r"^llama-(\d+(?:\.\d+)?)b$")


def create_backend(model_name: str) -> ModelBackend:
    """Instantiate a backend by model name (``llama-<N>b`` parsed generically)."""
    factory = BACKENDS.get(model_name)
    if factory is not None:
        return factory()
    match = _LLAMA_RE.match(model_name)
    if match:
        return LlamaModel(params_b=float(match.group(1)))
    raise KeyError(
        f"unknown model {model_name!r}; known: {sorted(BACKENDS)} "
        f"or 'llama-<N>b'")
