"""A tiny Markov-chain text generator: the "model" behind the LLM backend.

The paper serves Meta Llama-3-8B via Ollama.  Offline we cannot run an 8B
model, but the *runtime* does not care what produces the tokens -- it cares
that inference takes realistic time and returns text.  This bigram Markov
generator, trained on an embedded scientific-abstract corpus, produces
deterministic, prompt-conditioned text so examples and tests have real
payloads flowing through the service stack.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import defaultdict
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["MarkovGenerator", "SEED_CORPUS", "tokenize", "count_tokens"]

SEED_CORPUS = """
Hybrid workflows combining traditional HPC and novel ML methodologies are
transforming scientific computing . Integrating machine learning methods in
high performance computing promises significant scientific insight . The
runtime system manages heterogeneous tasks across local and remote platforms
with minimal overheads . Low dose radiation induces morphological changes in
exposed cells which can be detected by fine tuned vision transformer models .
Pathway enrichment analysis combines annotated variants with known gene sets
to identify significantly enriched molecular functions . Uncertainty
quantification evaluates model calibration across random seeds and methods .
Service interfaces expose machine learning models to compute tasks through
well defined request reply protocols . The scheduler places tasks onto nodes
respecting core and accelerator requirements while services receive priority .
Bootstrap time is dominated by model initialization while response time is
dominated by network latency for trivial requests . Inference time dominates
the response when the backend generates long sequences of output tokens .
Pilot systems acquire resources through batch queues and execute many tasks
within a single allocation . Data staging moves input files to the compute
platform before execution and retrieves outputs afterwards . Experimental
results show that concurrent execution of model instances scales with the
number of available accelerators . Remote services exhibit higher latency but
equivalent throughput once inference dominates the exchange .
""".strip()


def tokenize(text: str) -> List[str]:
    """Lowercase word/punctuation tokens."""
    return re.findall(r"[a-zA-Z0-9']+|[.,;:!?]", text.lower())


@lru_cache(maxsize=4096)  # a workload sends few distinct prompts, many times
def count_tokens(text: str) -> int:
    """``len(tokenize(text))``, remembered per distinct text."""
    return len(tokenize(text))


class MarkovGenerator:
    """Order-1 Markov model over word tokens with deterministic sampling."""

    def __init__(self) -> None:
        tokens = tokenize(SEED_CORPUS)
        if len(tokens) < 2:
            raise ValueError("corpus too small")
        table: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        for current, nxt in zip(tokens, tokens[1:]):
            table[current][nxt] += 1
        self._vocab = sorted({*tokens})
        self._index = {tok: i for i, tok in enumerate(self._vocab)}
        # Per token: successor words and their normalised CDF, built the way
        # ``Generator.choice(p=)`` builds it, so one ``rng.random()`` and a
        # bisection pick the same successor at the same stream position.
        self._successors: Dict[str, Tuple[List[str], List[float]]] = {}
        for tok, nexts in table.items():
            words = sorted(nexts)
            counts = np.array([nexts[w] for w in words], dtype=float)
            cdf = (counts / counts.sum()).cumsum()
            cdf /= cdf[-1]
            self._successors[tok] = (words, cdf.tolist())
        self._start_tokens = [t for t in self._vocab
                              if t in self._successors and t not in ".,;:!?"]

    @property
    def vocab_size(self) -> int:
        return len(self._vocab)

    def generate(self, prompt: str, n_tokens: int, rng) -> str:
        """Generate *n_tokens* continuing from the prompt's last known token."""
        if n_tokens < 0:
            raise ValueError("n_tokens must be >= 0")
        if n_tokens == 0:
            return ""
        prompt_tokens = tokenize(prompt)
        current = None
        for tok in reversed(prompt_tokens):
            if tok in self._successors:
                current = tok
                break
        if current is None:
            current = self._start_tokens[
                int(rng.integers(len(self._start_tokens)))]
        out: List[str] = []
        for _ in range(n_tokens):
            entry = self._successors.get(current)
            if entry is None:  # dead end: restart from a random start token
                current = self._start_tokens[
                    int(rng.integers(len(self._start_tokens)))]
                entry = self._successors[current]
            words, cdf = entry
            current = words[bisect_right(cdf, rng.random())]
            out.append(current)
        return " ".join(out)


#: Shared default generator (construction builds the bigram table once).
_DEFAULT: MarkovGenerator | None = None


def default_generator() -> MarkovGenerator:
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = MarkovGenerator()
    return _DEFAULT
