"""Tests for the Markov text generator."""

from collections import Counter, defaultdict

import numpy as np
import pytest

from repro.serving import MarkovGenerator, tokenize
from repro.serving import generator
from repro.serving.generator import SEED_CORPUS
from repro.sim import RngHub


@pytest.fixture
def gen():
    return MarkovGenerator()


class TestTokenize:
    def test_words_and_punctuation(self):
        assert tokenize("Hello, world.") == ["hello", ",", "world", "."]

    def test_lowercases(self):
        assert tokenize("HPC") == ["hpc"]

    def test_empty(self):
        assert tokenize("") == []


class TestMarkovGenerator:
    def test_generates_requested_length(self, gen):
        rng = RngHub(0).stream("g")
        text = gen.generate("the runtime", 50, rng)
        assert len(text.split()) == 50

    def test_deterministic_given_rng_state(self, gen):
        a = gen.generate("hybrid workflows", 30, RngHub(7).stream("g"))
        b = gen.generate("hybrid workflows", 30, RngHub(7).stream("g"))
        assert a == b

    def test_different_seeds_differ(self, gen):
        a = gen.generate("hybrid workflows", 30, RngHub(1).stream("g"))
        b = gen.generate("hybrid workflows", 30, RngHub(2).stream("g"))
        assert a != b

    def test_zero_tokens(self, gen):
        assert gen.generate("x", 0, RngHub(0).stream("g")) == ""

    def test_negative_tokens_rejected(self, gen):
        with pytest.raises(ValueError):
            gen.generate("x", -1, RngHub(0).stream("g"))

    def test_unknown_prompt_still_generates(self, gen):
        text = gen.generate("zzzqqqxxx", 10, RngHub(0).stream("g"))
        assert len(text.split()) == 10

    def test_output_tokens_in_vocabulary(self, gen):
        text = gen.generate("scientific computing", 100,
                            RngHub(3).stream("g"))
        vocab = set(gen._vocab)
        assert all(tok in vocab for tok in text.split())

    def test_tiny_corpus_rejected(self, monkeypatch):
        monkeypatch.setattr(generator, "SEED_CORPUS", "one")
        with pytest.raises(ValueError):
            MarkovGenerator()


class TestStoredCdfSampling:
    """Successors come from a stored CDF; ``choice(p=)`` is the spec."""

    def test_every_table_picks_what_choice_picks(self, gen):
        tokens = tokenize(SEED_CORPUS)
        table = defaultdict(Counter)
        for current, nxt in zip(tokens, tokens[1:]):
            table[current][nxt] += 1
        assert set(table) == set(gen._successors)
        for tok, nexts in table.items():
            words = sorted(nexts)
            counts = np.array([nexts[w] for w in words], dtype=float)
            probs = counts / counts.sum()
            spec, mine = np.random.default_rng(5), np.random.default_rng(5)
            for _ in range(300):
                want = words[int(spec.choice(len(words), p=probs))]
                assert gen.generate(tok, 1, mine) == want, tok
            # one uniform draw per pick: both streams sit at the same place
            assert spec.random() == mine.random(), tok

    @pytest.mark.parametrize("seed, prompt, text", [
        (0, "the runtime",
         "system manages heterogeneous tasks onto nodes respecting core and "
         "retrieves outputs afterwards . the scheduler places tasks through "
         "well defined request reply protocols ."),
        (7, "hybrid workflows",
         "combining traditional hpc and retrieves outputs afterwards . the "
         "runtime system manages heterogeneous tasks through well defined "
         "request reply protocols . uncertainty quantification evaluates"),
        (3, "zzzqqqxxx",
         ". experimental results show that concurrent execution of output "
         "tokens . pathway enrichment analysis combines annotated variants "
         "with the compute platform before execution and"),
    ])
    def test_generated_text_is_what_choice_produced(self, gen, seed, prompt,
                                                    text):
        # literals produced with ``rng.choice(len(words), p=probs)``
        assert gen.generate(prompt, 24, RngHub(seed).stream("g")) == text
