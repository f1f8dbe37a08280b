"""Tests for model backends (cost models + generated payloads)."""

import numpy as np
import pytest

from repro.serving import LlamaModel, NoopModel, create_backend
from repro.sim import RngHub


@pytest.fixture
def rng():
    return RngHub(0).stream("backend")


class TestNoopModel:
    def test_inference_is_essentially_free(self, rng):
        noop = NoopModel()
        [payload], duration = noop.infer_batch(["hello world"], rng)
        assert duration < 1e-4
        assert payload.completion_tokens == 0
        assert payload.text == ""

    def test_prompt_tokens_counted(self, rng):
        noop = NoopModel()
        [payload], _ = noop.infer_batch(["one two three four"], rng)
        assert payload.prompt_tokens == 4

    def test_load_time_sub_second(self, rng):
        noop = NoopModel()
        loads = [noop.load_time(rng) for _ in range(100)]
        assert 0.05 < np.mean(loads) < 1.0


class TestLlamaModel:
    def test_load_time_dominates_bootstrap_scale(self, rng):
        llama = LlamaModel(params_b=8.0)
        load = llama.load_time(rng, concurrent_loads=1,
                               fs_bandwidth_gbps=4.0)
        # 16 GB over 4 GB/s + ~8 s init => roughly 10-20 s
        assert 5.0 < load < 40.0

    def test_load_contention_increases_time(self, rng):
        llama = LlamaModel(params_b=8.0)
        alone = np.mean([llama.load_time(rng, 1, 4.0) for _ in range(50)])
        crowded = np.mean([llama.load_time(rng, 640, 4.0) for _ in range(50)])
        assert crowded > alone * 2

    def test_inference_seconds_scale(self, rng):
        llama = LlamaModel(params_b=8.0)
        _, duration = llama.infer_batch(["explain pilot systems"], rng,
                                        [{"max_tokens": 256}])
        # ~192 tokens at 35 tok/s => a few seconds (Fig. 6 regime)
        assert 1.0 < duration < 15.0

    def test_inference_generates_real_text(self, rng):
        llama = LlamaModel(params_b=8.0)
        [payload], _ = llama.infer_batch(["the runtime"], rng,
                                         [{"max_tokens": 64}])
        assert payload.completion_tokens > 0
        assert len(payload.text.split()) == payload.completion_tokens

    def test_completion_respects_max_tokens(self, rng):
        llama = LlamaModel()
        for _ in range(20):
            [payload], _ = llama.infer_batch(["x"], rng, [{"max_tokens": 32}])
            assert payload.completion_tokens <= 32

    def test_longer_output_takes_longer(self, rng):
        llama = LlamaModel()
        short = np.mean([llama.infer_batch(["p"], rng, [{"max_tokens": 16}])
                         [1] for _ in range(20)])
        long = np.mean([llama.infer_batch(["p"], rng, [{"max_tokens": 512}])
                        [1] for _ in range(20)])
        assert long > short * 5

    def test_bigger_model_loads_longer(self, rng):
        small = LlamaModel(params_b=8.0).load_time(rng, 1, 8.0)
        big = LlamaModel(params_b=70.0).load_time(rng, 1, 8.0)
        assert big > small

    def test_invalid_params(self, rng):
        with pytest.raises(ValueError):
            LlamaModel(params_b=0)
        with pytest.raises(ValueError):
            LlamaModel().infer_batch(["x"], rng, [{"max_tokens": -1}])
        with pytest.raises(ValueError):
            LlamaModel().load_time(rng, concurrent_loads=0)


class TestBackendRegistry:
    def test_known_names(self):
        assert create_backend("noop").name == "noop"
        assert create_backend("llama-8b").name == "llama-8b"

    def test_generic_llama_pattern(self):
        model = create_backend("llama-13b")
        assert model.params_b == 13.0

    def test_unknown_model_raises(self):
        with pytest.raises(KeyError, match="unknown model"):
            create_backend("gpt-oss-120b")



@pytest.mark.parametrize("make", [NoopModel, LlamaModel,
                                  lambda: LlamaModel(70.0, 8.0)])
def test_one_inference_is_the_batch_of_one(make):
    """``infer`` is ``infer_batch`` of one prompt, bit for bit: same
    payload, same duration, same draws."""
    for seed in range(10):
        model = make()
        one = model.infer("a pilot runs tasks", RngHub(seed).stream("m"),
                          {"max_tokens": 48})
        [payload], span = model.infer_batch(
            ["a pilot runs tasks"], RngHub(seed).stream("m"),
            [{"max_tokens": 48}])
        assert one == (payload, span)
