"""Deterministic, human-readable entity identifiers.

RADICAL-Pilot names entities like ``task.0003`` or ``pilot.0000`` within a
session.  We reproduce that convention: identifiers are ``<prefix>.<NNNN>``
with a per-prefix monotonic counter.  Counters live in an :class:`IdRegistry`
owned by the session -- there is no process-global one -- so that two
sessions with the same seed name everything alike, in one process or two.
"""

from __future__ import annotations

import itertools
import threading
from typing import Dict, Iterator

__all__ = ["IdRegistry"]


class IdRegistry:
    """A thread-safe factory for ``<prefix>.<NNNN>`` identifiers.

    Each prefix owns an independent counter starting at zero::

        >>> reg = IdRegistry()
        >>> reg.generate("task")
        'task.0000'
        >>> reg.generate("task")
        'task.0001'
        >>> reg.generate("pilot")
        'pilot.0000'
    """

    def __init__(self) -> None:
        self._counters: Dict[str, Iterator[int]] = {}
        self._lock = threading.Lock()

    def generate(self, prefix: str, width: int = 4) -> str:
        """Return the next identifier for *prefix*."""
        return self.generate_batch(prefix, 1, width=width)[0]

    def generate_batch(self, prefix: str, count: int,
                       width: int = 4) -> list:
        """Return *count* consecutive identifiers under one lock acquisition.

        The bulk-submission path names tens of thousands of tasks at once;
        taking the lock per id (and re-resolving the counter) is pure
        overhead there.  Equivalent to
        ``[generate(prefix) for _ in range(count)]``: ids stay dense and
        monotonic.
        """
        if not prefix:
            raise ValueError("id prefix must be a non-empty string")
        if count < 0:
            raise ValueError("count must be non-negative")
        with self._lock:
            counter = self._counters.get(prefix)
            if counter is None:
                counter = itertools.count()
                self._counters[prefix] = counter
            seqs = [next(counter) for _ in range(count)]
        return [f"{prefix}.{seq:0{width}d}" for seq in seqs]
