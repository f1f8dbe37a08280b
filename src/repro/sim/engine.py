"""The simulation engine: one virtual-time kernel, run as fast as possible.

:class:`SimulationEngine` is a classic event-heap DES core: events are
scheduled at absolute timestamps, popped in (time, priority, insertion)
order, and their callbacks executed.  Virtual time advances instantly
between events, so a 640-service bootstrap experiment "on Frontier" runs in
milliseconds of wall time.

Two structural optimisations keep the kernel flat at million-task scale
(profiled via ``benchmarks/profile_hotpath.py``; held against a minimal
one-heap kernel by ``benchmarks/test_micro_kernels.py``):

* **now-queue** -- zero-delay NORMAL-priority events (the bulk of
  control-plane traffic: grant cascades, completion chains, zero-latency
  bus hops) go into a FIFO deque instead of the binary heap.  Entries carry
  the same ``(time, priority, eid, event)`` tuples as heap entries; because
  event ids are monotonic and the clock never moves backwards, the deque is
  sorted by construction, and a single tuple comparison against the heap
  head merges both streams in exact global order.  Same-timestamp bursts
  therefore dispatch in O(1) per event instead of O(log n).

* **deferred fast path** -- :meth:`SimulationEngine.call_later` schedules a
  pooled :class:`~repro.sim.events.Deferred` (a bare fn/arg pair) instead
  of an :class:`Event` with a callback list; the dispatch loop recognises
  it and calls the function directly.  No allocation after warm-up, no
  callback-list churn, no :class:`Process` machinery for leaf waits.

There is **one dispatch loop** (:meth:`SimulationEngine._dispatch`): the
merged pop, the cancelled-entry skip and the dispatch body exist once, and
every :meth:`~SimulationEngine.run` mode is a thin caller that differs only
in the stop conditions it passes -- a stop event, a deadline.

The kernel counts its own work: ``entries`` made and generator ``resumes``;
a budget per task, request or tick is a difference of the two.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Union

from .events import (
    NORMAL,
    AllOf,
    AnyOf,
    Condition,
    Deferred,
    Event,
    Process,
    Timeout,
)

__all__ = ["SimulationEngine"]

_INF = float("inf")
#: "no stop event" for :meth:`SimulationEngine._dispatch`: never scheduled,
#: so never processed, and the loop needs no ``stop is None`` test per event
_NEVER = Event(None)  # type: ignore[arg-type]


class SimulationEngine:
    """Discrete-event simulation core with a binary-heap event queue."""

    def __init__(self) -> None:
        #: current simulation time in seconds -- a plain attribute, read a
        #: dozen times per task or request; only the dispatch loop writes it
        self.now = 0.0
        self._heap: List[tuple] = []
        #: zero-delay NORMAL-priority entries, sorted by construction
        self._nowq: Deque[tuple] = deque()
        self._eid = itertools.count()
        #: free list of fired Deferred instances (see call_later)
        self._pool: List[Deferred] = []
        #: generator sends / throws so far, routines included
        self.resumes = 0

    @property
    def entries(self) -> int:
        """Kernel entries made so far: each drew one id from ``_eid``."""
        return int(repr(self._eid)[6:-1])  # "count(N)"

    # -- introspection --------------------------------------------------------
    def _prune_cancelled(self) -> None:
        """Drop cancelled events from the heads of both queues."""
        heap = self._heap
        while heap and heap[0][3]._cancelled:
            heapq.heappop(heap)
        nowq = self._nowq
        while nowq and nowq[0][3]._cancelled:
            nowq.popleft()

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or +inf when idle."""
        self._prune_cancelled()
        heap, nowq = self._heap, self._nowq
        if heap:
            if nowq and nowq[0] < heap[0]:
                return nowq[0][0]
            return heap[0][0]
        return nowq[0][0] if nowq else _INF

    # -- scheduling -----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Enqueue *event* for processing at ``now + delay``."""
        if delay == 0.0 and priority == NORMAL:
            # Fast path: immediate events keep global (time, priority, eid)
            # order in a plain FIFO -- see the now-queue note in the module
            # docstring.
            self._nowq.append((self.now, NORMAL, next(self._eid), event))
            return
        if not delay >= 0:  # written this way round so that NaN is refused
            raise ValueError(f"negative or NaN delay {delay}")
        heapq.heappush(self._heap, (self.now + delay, priority,
                                    next(self._eid), event))

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None, priority: int = NORMAL) -> Deferred:
        """Schedule ``fn(arg)`` after *delay* via the pooled fast path.

        Internal fast path for leaf waits (bus deliveries, link timers)
        that need no observable :class:`Event`.  Returns a handle whose
        ``cancel()`` withdraws the call -- valid only *before* the fire
        time: fired handles are recycled into the pool and may already
        back an unrelated call.
        """
        pool = self._pool
        if pool:
            ev = pool.pop()
        else:
            ev = Deferred()
        ev.fn = fn
        ev.arg = arg
        if delay == 0.0 and priority == NORMAL:
            self._nowq.append((self.now, NORMAL, next(self._eid), ev))
        elif not delay >= 0:  # NaN too: it would corrupt the heap order
            raise ValueError(f"negative or NaN delay {delay}")
        else:
            heapq.heappush(self._heap, (self.now + delay, priority,
                                        next(self._eid), ev))
        return ev

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float) -> Timeout:
        """Create an event that triggers after *delay* simulated seconds."""
        return Timeout(self, delay)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a simulation process from *generator*."""
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> Condition:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> Condition:
        return AnyOf(self, events)

    # -- dispatch -------------------------------------------------------------
    def _dispatch(self, stop: Event, deadline: float) -> bool:
        """The dispatch loop: pop the next live entry, run it, repeat.

        Stops -- returning True -- as soon as *stop* has been processed
        (all of its callbacks ran) or the next entry lies past *deadline*
        (it stays queued; entries at exactly the deadline still fire).
        Returns False when both queues ran dry first.  Re-raises the value
        of a failed event nobody defused (an unhandled process crash).
        """
        heap = self._heap
        nowq = self._nowq
        pool = self._pool
        heappop = heapq.heappop
        while True:
            # Wait for *processing*, not just triggering: Timeout events
            # carry their value from creation, so .triggered alone is not
            # "occurred".
            if stop.callbacks is None:
                return True
            # Merged pop across heap and now-queue.  Cancelled entries are
            # skipped in the same pass: pruning ahead (peek() before every
            # pop) would test both heads twice per event,
            # which adds up over the millions of events of a campaign.
            if nowq:
                if heap and heap[0] < nowq[0]:
                    entry = heappop(heap)
                else:
                    entry = nowq.popleft()
            elif heap:
                # Only here can an entry lie past the deadline: now-queue
                # entries carry the clock value they were queued at, which
                # no deadline precedes, and a heap head that wins the
                # merge above is no later than they are.
                if heap[0][0] > deadline:
                    return True
                entry = heappop(heap)
            else:
                return False
            event = entry[3]
            if event._cancelled:
                continue
            self.now = entry[0]
            if type(event) is Deferred:
                fn = event.fn
                arg = event.arg
                event.fn = event.arg = None
                pool.append(event)
                fn(arg)
                continue
            callbacks = event.callbacks
            event.callbacks = None
            for callback in callbacks:
                callback(event)
            if event._ok is False and not event._defused:
                raise event._value

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        * ``until=None``   -- run until no events remain.
        * ``until=<float>``-- run until simulated time reaches the deadline
          (time is advanced to exactly the deadline on return).
        * ``until=<Event>``-- run until the event triggers; returns its value
          (re-raising for failed events).
        """
        if until is None:
            self._dispatch(_NEVER, _INF)
            return None
        if isinstance(until, Event):
            if not self._dispatch(until, _INF):
                raise RuntimeError(
                    "simulation ran out of events before the 'until' "
                    "event triggered (deadlock?)")
            if until._ok is False:
                until._defused = True
                raise until._value
            return until._value
        deadline = float(until)
        if not deadline >= self.now:  # NaN is refused like a past deadline
            raise ValueError(
                f"until ({deadline}) lies in the past (now={self.now})")
        self._dispatch(_NEVER, deadline)
        self.now = deadline
        return None

