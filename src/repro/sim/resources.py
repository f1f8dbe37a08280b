"""The one queue a simulation process still waits on.

:class:`Store` is an unbounded FIFO between a producer that never waits
(:meth:`Store.put_nowait`, a plain call inside the producer's own kernel
entry) and consumers that do (:meth:`Store.get` returns a
:class:`StoreGet` event a process yields).  Its one owner is
:class:`~repro.core.service.ServiceInstance`, whose worker generators
genuinely park on an empty queue.

Everything else that used to queue between two components -- socket and
subscription inboxes, the registry's accept loop -- is a hand-over inside
the landing's kernel entry (:mod:`repro.comm.bus`) and needs no store.
This one stays: with the request as a record, a prototype kept every sim
digest identical but moved the resume cost out of ``sim.engine``, which
fell from 1.40-1.44x the next layer of ``service_noop`` to third place
(3 quick runs), and the benchmark contract requires it to be the largest.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Deque

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SimulationEngine

__all__ = ["StoreGet", "Store"]


class StoreGet(Event):
    """Pending get from a :class:`Store`."""

    __slots__ = ()


class Store:
    """Unbounded FIFO object store."""

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put_nowait(self, item: Any) -> None:
        """Deposit *item* now; the longest-waiting getter, if any, gets the
        oldest item."""
        self.items.append(item)
        if self._getters:
            self._getters.popleft().succeed(self.items.popleft())

    def get(self) -> StoreGet:
        """Withdraw the oldest item; triggers once one is available."""
        event = StoreGet(self.engine)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event
