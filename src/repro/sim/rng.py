"""Deterministic, named random-number streams.

Stochastic cost models (network latency, model load time, MPI launch jitter)
must be reproducible *and* independent: changing how many samples one
component draws must not perturb another component's stream.  The
:class:`RngHub` derives an independent :class:`numpy.random.Generator` per
stream name from a root seed via SHA-256, so ``hub.stream("fabric")`` is
stable across runs and across unrelated code changes.

A stream that is only ever asked for gaussians (the fabric's wire latencies,
an executor's launch and duration jitter) can be taken as a normal-only
stream, :meth:`RngHub.normals`.  It draws standard normals in blocks and
answers ``normal(loc, scale)`` with ``loc + scale * z``, which is exactly how
numpy computes a scalar ``Generator.normal``: the block fill consumes the
bit generator in the same order as one scalar call after another, and the
affine step is the same two IEEE operations, so every value is identical bit
for bit -- at a fraction of a scalar numpy call's cost.  Because the block
reads the generator ahead of what has been consumed, a name is either
normal-only or plain, never both: asking the hub for the other kind raises.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

import numpy as np

__all__ = ["RngHub", "NormalStream"]

#: standard normals in a normal-only stream's first block; each refill
#: doubles it up to the cap, so a stream that is barely used costs little
_FIRST_BLOCK = 64
_MAX_BLOCK = 1024


class NormalStream:
    """The gaussian draws of one named generator, taken in blocks."""

    __slots__ = ("_gen", "_block", "_size")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        #: the current block, reversed: ``pop()`` hands out the next draw
        self._block: List[float] = []
        self._size = _FIRST_BLOCK

    def _refill(self) -> float:
        """Draw the next block; returns its first value, already taken."""
        block = self._gen.standard_normal(self._size).tolist()
        block.reverse()
        self._block = block
        self._size = min(2 * self._size, _MAX_BLOCK)
        return block.pop()

    def normal(self, loc: float, scale: float) -> float:
        """``Generator.normal(loc, scale)``: the same value."""
        block = self._block
        return loc + scale * (block.pop() if block else self._refill())


class RngHub:
    """Factory for reproducible, independently-seeded RNG streams."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}
        self._normals: Dict[str, NormalStream] = {}

    def _derive(self, name: str) -> np.random.SeedSequence:
        digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
        words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
        return np.random.SeedSequence(words)

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        Repeated calls return the *same* generator object, so draws advance
        a single per-name sequence.
        """
        gen = self._streams.get(name)
        if gen is None:
            if name in self._normals:
                raise ValueError(f"stream {name!r} is normal-only")
            gen = np.random.default_rng(self._derive(name))
            self._streams[name] = gen
        return gen

    def normals(self, name: str) -> NormalStream:
        """Return the normal-only stream for *name* (same values as
        ``stream(name).normal``), creating it on first use."""
        normals = self._normals.get(name)
        if normals is None:
            if name in self._streams:
                raise ValueError(f"stream {name!r} is not normal-only")
            normals = NormalStream(np.random.default_rng(self._derive(name)))
            self._normals[name] = normals
        return normals

    def __repr__(self) -> str:
        return (f"RngHub(seed={self.seed}, "
                f"streams={sorted({*self._streams, *self._normals})})")
