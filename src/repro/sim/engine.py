"""Simulation engines: virtual-time (as fast as possible) and real-time.

:class:`SimulationEngine` is a classic event-heap DES core: events are
scheduled at absolute timestamps, popped in (time, priority, insertion)
order, and their callbacks executed.  Virtual time advances instantly
between events, so a 640-service bootstrap experiment "on Frontier" runs in
milliseconds of wall time.

:class:`RealtimeEngine` exposes the identical API but paces event execution
against the wall clock (scaled by *factor*) and accepts thread-safe event
injection, which lets executors run *real* Python workloads in worker threads
and feed completions back into the simulation loop.

Two structural optimisations keep the kernel flat at million-task scale
(profiled via ``benchmarks/profile_hotpath.py``):

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

Beyond the flat kernel, ``SimulationEngine(lanes=N)`` builds a
**lane-partitioned kernel**: N independent heap+now-queue pairs indexed by
each event's :attr:`~repro.sim.events.Event.lane` tag (producers owning
disjoint state tag their traffic), merged by a
small offer heap of ``(time, priority, eid, lane)`` keys with per-lane
registered heads and lazy invalidation.  Because event ids come from one
monotonic counter and the merge picks the globally smallest
``(time, priority, eid)`` key, processing order is **bit-identical** to the
flat kernel for any lane count (property-tested in
``tests/test_properties.py``); lanes only change which queue holds an
entry, which bounds per-queue depth and is the structural prerequisite for
dispatching independent lanes concurrently.  Lane 0 aliases the flat
``_heap``/``_nowq`` pair, so single-lane engines pay nothing.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time as _time
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Union

from .events import (
    PENDING,
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Condition,
    Deferred,
    Event,
    Process,
    Timeout,
)

__all__ = ["SimulationEngine", "RealtimeEngine", "StopEngine"]


class StopEngine(Exception):
    """Raised internally to halt :meth:`SimulationEngine.run`."""


class SimulationEngine:
    """Discrete-event simulation core with a binary-heap event queue."""

    def __init__(self, start_time: float = 0.0, lanes: int = 1) -> None:
        self._now = float(start_time)
        self._heap: List[tuple] = []
        #: zero-delay NORMAL-priority entries, sorted by construction
        self._nowq: Deque[tuple] = deque()
        self._eid = itertools.count()
        self._active_process: Optional[Process] = None
        #: free list of fired Deferred instances (see call_later)
        self._pool: List[Deferred] = []
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self._nlanes = int(lanes)
        if self._nlanes > 1:
            # Lane 0 aliases the flat queues so code that introspects
            # ``_heap``/``_nowq`` keeps seeing a real lane.
            self._lane_heaps: List[List[tuple]] = [
                self._heap] + [[] for _ in range(self._nlanes - 1)]
            self._lane_nowqs: List[Deque[tuple]] = [
                self._nowq] + [deque() for _ in range(self._nlanes - 1)]
            #: merge heap of (time, priority, eid, lane) offers
            self._merge: List[tuple] = []
            #: per-lane registered offer key (the smallest outstanding offer)
            self._lane_offer: List[Optional[tuple]] = [None] * self._nlanes

    # -- introspection --------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def lanes(self) -> int:
        """Number of dispatch lanes (1 = flat kernel)."""
        return self._nlanes

    def lane_depths(self) -> List[int]:
        """Entries queued per lane (heap + now-queue), cancelled included."""
        if self._nlanes == 1:
            return [len(self._heap) + len(self._nowq)]
        return [len(h) + len(q)
                for h, q in zip(self._lane_heaps, self._lane_nowqs)]

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (None outside resumes)."""
        return self._active_process

    def _prune_cancelled(self) -> None:
        """Drop cancelled events from the heads of every queue pair."""
        if self._nlanes == 1:
            heap = self._heap
            while heap and heap[0][3]._cancelled:
                heapq.heappop(heap)
            nowq = self._nowq
            while nowq and nowq[0][3]._cancelled:
                nowq.popleft()
            return
        heappop = heapq.heappop
        for heap, nowq in zip(self._lane_heaps, self._lane_nowqs):
            while heap and heap[0][3]._cancelled:
                heappop(heap)
            while nowq and nowq[0][3]._cancelled:
                nowq.popleft()

    def peek(self) -> float:
        """Timestamp of the next scheduled event, or +inf when idle."""
        self._prune_cancelled()
        if self._nlanes == 1:
            heap, nowq = self._heap, self._nowq
            if heap:
                if nowq and nowq[0] < heap[0]:
                    return nowq[0][0]
                return heap[0][0]
            return nowq[0][0] if nowq else float("inf")
        best: Optional[tuple] = None
        for heap, nowq in zip(self._lane_heaps, self._lane_nowqs):
            if heap:
                head = heap[0]
                if nowq and nowq[0] < head:
                    head = nowq[0]
            elif nowq:
                head = nowq[0]
            else:
                continue
            if best is None or head < best:
                best = head
        return best[0] if best is not None else float("inf")

    def is_idle(self) -> bool:
        self._prune_cancelled()
        if self._nlanes == 1:
            return not self._heap and not self._nowq
        return not any(self._lane_heaps) and not any(self._lane_nowqs)

    # -- scheduling -----------------------------------------------------------
    def schedule(self, event: Event, delay: float = 0.0,
                 priority: int = NORMAL) -> None:
        """Enqueue *event* for processing at ``now + delay``.

        On lane-partitioned engines the entry lands in the queue pair named
        by ``event.lane`` (taken modulo the lane count); single-lane engines
        never read the tag.
        """
        if self._nlanes != 1:
            self._insert_lane(event.lane, event, delay, priority)
            return
        if delay == 0.0 and priority == NORMAL:
            # Fast path: immediate events keep global (time, priority, eid)
            # order in a plain FIFO -- see the now-queue note in the module
            # docstring.
            self._nowq.append((self._now, NORMAL, next(self._eid), event))
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heapq.heappush(self._heap, (self._now + delay, priority,
                                    next(self._eid), event))

    def call_later(self, delay: float, fn: Callable[[Any], None],
                   arg: Any = None, priority: int = NORMAL,
                   lane: int = 0) -> Deferred:
        """Schedule ``fn(arg)`` after *delay* via the pooled fast path.

        Internal fast path for leaf waits (bus deliveries, link timers)
        that need no observable :class:`Event`.  Returns a handle whose
        ``cancel()`` withdraws the call -- valid only *before* the fire
        time: fired handles are recycled into the pool and may already
        back an unrelated call.  *lane* names the dispatch lane on
        partitioned engines (ignored on flat ones).
        """
        pool = self._pool
        if pool:
            ev = pool.pop()
        else:
            ev = Deferred()
        ev.fn = fn
        ev.arg = arg
        if self._nlanes != 1:
            self._insert_lane(lane, ev, delay, priority)
            return ev
        if delay == 0.0 and priority == NORMAL:
            self._nowq.append((self._now, NORMAL, next(self._eid), ev))
        elif delay < 0:
            raise ValueError(f"negative delay {delay}")
        else:
            heapq.heappush(self._heap, (self._now + delay, priority,
                                        next(self._eid), ev))
        return ev

    # -- lane-partitioned kernel ----------------------------------------------
    def _insert_lane(self, lane: int, item: Any, delay: float,
                     priority: int) -> None:
        """Insert *item* into its lane and keep the merge offer current.

        The merge heap holds ``(time, priority, eid, lane)`` offers;
        ``_lane_offer[lane]`` records the smallest outstanding offer key for
        the lane.  An offer is (re)issued only when the new entry beats the
        registered one, so each lane contributes O(1) live offers and stale
        (superseded or cancelled) offers are discarded lazily at pop time.
        """
        if lane:
            lane %= self._nlanes
        if delay == 0.0 and priority == NORMAL:
            key = (self._now, NORMAL, next(self._eid))
            self._lane_nowqs[lane].append(key + (item,))
        elif delay < 0:
            raise ValueError(f"negative delay {delay}")
        else:
            key = (self._now + delay, priority, next(self._eid))
            heapq.heappush(self._lane_heaps[lane], key + (item,))
        registered = self._lane_offer[lane]
        if registered is None or key < registered:
            self._lane_offer[lane] = key
            heapq.heappush(self._merge, key + (lane,))

    def _pop_next_lane(self) -> Optional[tuple]:
        """Pop the globally next live entry across all lanes (or None).

        Pops merge offers until one still matches its lane's registered
        head; cancelled heads are pruned in the same pass (single prune,
        like the flat kernel) and a head that changed since the offer was
        issued is simply re-offered at its live key.  Keys are unique
        (monotonic eids), so the matched offer identifies the exact entry
        and the returned entry is the global ``(time, priority, eid)``
        minimum -- every other lane's registered offer is a lower bound on
        its live head and all of those are still in the merge heap.
        """
        merge = self._merge
        heaps, nowqs, offers = self._lane_heaps, self._lane_nowqs, \
            self._lane_offer
        heappop, heappush = heapq.heappop, heapq.heappush
        while merge:
            t, p, e, lane = heappop(merge)
            if (t, p, e) != offers[lane]:
                continue  # superseded by a smaller offer for this lane
            heap, nowq = heaps[lane], nowqs[lane]
            while heap and heap[0][3]._cancelled:
                heappop(heap)
            while nowq and nowq[0][3]._cancelled:
                nowq.popleft()
            if heap:
                if nowq and nowq[0] < heap[0]:
                    head, from_nowq = nowq[0], True
                else:
                    head, from_nowq = heap[0], False
            elif nowq:
                head, from_nowq = nowq[0], True
            else:
                offers[lane] = None  # lane fully drained (all cancelled)
                continue
            key = head[:3]
            if key != (t, p, e):
                # The registered head was cancelled and pruned away;
                # re-offer the live head and keep looking.
                offers[lane] = key
                heappush(merge, key + (lane,))
                continue
            entry = nowq.popleft() if from_nowq else heappop(heap)
            # Re-offer the lane's next raw head (if cancelled, the mismatch
            # branch above repairs it on a later pop).
            if heap:
                nxt = heap[0]
                if nowq and nowq[0] < nxt:
                    nxt = nowq[0]
                key = nxt[:3]
                offers[lane] = key
                heappush(merge, key + (lane,))
            elif nowq:
                key = nowq[0][:3]
                offers[lane] = key
                heappush(merge, key + (lane,))
            else:
                offers[lane] = None
            return entry
        return None

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after *delay* simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Start a simulation process from *generator*."""
        return Process(self, generator)

    def all_of(self, events: List[Event]) -> Condition:
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> Condition:
        return AnyOf(self, events)

    # -- stepping -------------------------------------------------------------
    def step(self) -> None:
        """Process the single next event.

        Raises :class:`IndexError` when the queue is empty, and re-raises the
        value of failed events nobody defused (unhandled process crashes).
        """
        if self._nlanes != 1:
            lane_entry = self._pop_next_lane()
            if lane_entry is None:
                raise IndexError("step from an empty event queue")
            entry = lane_entry
            event = entry[3]
        else:
            heap = self._heap
            nowq = self._nowq
            # merged pop across heap and now-queue, skipping cancelled events
            # in the same pass (single prune, no helper-call churn)
            while True:
                if nowq:
                    if heap and heap[0] < nowq[0]:
                        entry = heapq.heappop(heap)
                    else:
                        entry = nowq.popleft()
                elif heap:
                    entry = heapq.heappop(heap)
                else:
                    raise IndexError("step from an empty event queue")
                event = entry[3]
                if not event._cancelled:
                    break
        self._now = entry[0]

        if type(event) is Deferred:
            fn = event.fn
            arg = event.arg
            event.fn = event.arg = None
            self._pool.append(event)
            fn(arg)
            return

        callbacks, event.callbacks = event.callbacks, None
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
        if self._nlanes != 1:
            return self._run_lanes(until)
        heap = self._heap
        nowq = self._nowq
        pool = self._pool
        heappop = heapq.heappop

        if isinstance(until, Event):
            stop_event = until
            # Wait for *processing*, not just triggering: Timeout events carry
            # their value from creation, so .triggered alone is not "occurred".
            # Cancelled events are skipped inside the same pop loop -- a
            # single prune pass, like the ``until=None`` path.
            while not stop_event.processed:
                if nowq:
                    if heap and heap[0] < nowq[0]:
                        entry = heappop(heap)
                    else:
                        entry = nowq.popleft()
                elif heap:
                    entry = heappop(heap)
                else:
                    raise RuntimeError(
                        "simulation ran out of events before the 'until' "
                        "event triggered (deadlock?)")
                event = entry[3]
                if event._cancelled:
                    continue
                self._now = entry[0]
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
            if stop_event._ok is False:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        if until is None:
            # Drive both queues directly: the is_idle()/step() pair would
            # prune the cancelled-event prefix twice per iteration, which
            # adds up over the millions of events of a large campaign.
            while True:
                if nowq:
                    if heap and heap[0] < nowq[0]:
                        entry = heappop(heap)
                    else:
                        entry = nowq.popleft()
                elif heap:
                    entry = heappop(heap)
                else:
                    return None
                event = entry[3]
                if event._cancelled:
                    continue
                self._now = entry[0]
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

        deadline = float(until)
        if deadline < self._now:
            raise ValueError(
                f"until ({deadline}) lies in the past (now={self._now})")
        # Same single-prune merged pop as the paths above: the peek()/step()
        # pair would prune the cancelled-event prefix twice per event.  An
        # entry past the deadline is pushed back (heap membership is valid
        # for any entry -- ordering is by the full tuple) and the loop ends.
        while True:
            if nowq:
                if heap and heap[0] < nowq[0]:
                    entry = heappop(heap)
                else:
                    entry = nowq.popleft()
            elif heap:
                entry = heappop(heap)
            else:
                break
            event = entry[3]
            if event._cancelled:
                continue
            if entry[0] > deadline:
                heapq.heappush(heap, entry)
                break
            self._now = entry[0]
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
        self._now = deadline
        return None

    def _run_lanes(self, until: Union[None, float, Event]) -> Any:
        """Lane-partitioned run loop: merged pop, identical dispatch order."""
        pop = self._pop_next_lane
        pool = self._pool

        if isinstance(until, Event):
            stop_event = until
            while not stop_event.processed:
                entry = pop()
                if entry is None:
                    raise RuntimeError(
                        "simulation ran out of events before the 'until' "
                        "event triggered (deadlock?)")
                event = entry[3]
                self._now = entry[0]
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
            if stop_event._ok is False:
                stop_event._defused = True
                raise stop_event._value
            return stop_event._value

        deadline = None if until is None else float(until)
        if deadline is not None and deadline < self._now:
            raise ValueError(
                f"until ({deadline}) lies in the past (now={self._now})")
        while True:
            entry = pop()
            if entry is None:
                break
            if deadline is not None and entry[0] > deadline:
                # Push back into lane 0: which lane holds an entry does not
                # affect ordering, only the offer bookkeeping, so re-homing
                # the overshoot entry is safe and O(log n).
                key = entry[:3]
                heapq.heappush(self._lane_heaps[0], entry)
                registered = self._lane_offer[0]
                if registered is None or key < registered:
                    self._lane_offer[0] = key
                    heapq.heappush(self._merge, key + (0,))
                break
            event = entry[3]
            self._now = entry[0]
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
        if deadline is not None:
            self._now = deadline
        return None


class RealtimeEngine(SimulationEngine):
    """DES engine paced against the wall clock with thread-safe injection.

    *factor* is the wall-clock duration of one simulated second (``1.0`` =
    real time, ``0.1`` = 10x speed-up, ``0`` = as fast as possible while
    still accepting cross-thread injections).

    External threads call :meth:`call_soon_threadsafe` to run a callable on
    the engine thread; this is how worker pools deliver completions of real
    Python workloads into the simulation.

    Always single-lane: the wall-clock wait loop reads the flat
    ``_heap``/``_nowq`` pair directly, and realtime runs are paced by the
    wall clock rather than dispatch throughput, so lane partitioning has
    nothing to win here.
    """

    def __init__(self, factor: float = 1.0, start_time: float = 0.0) -> None:
        super().__init__(start_time)
        if factor < 0:
            raise ValueError("factor must be >= 0")
        self.factor = factor
        self._cv = threading.Condition()
        self._injected: List[tuple] = []
        self._running = False
        self._wall_anchor = 0.0
        self._sim_anchor = 0.0

    # -- cross-thread API ------------------------------------------------------
    def call_soon_threadsafe(self, fn: Callable, *args: Any) -> None:
        """Schedule ``fn(*args)`` to run on the engine thread ASAP."""
        with self._cv:
            self._injected.append((fn, args))
            self._cv.notify_all()

    def _drain_injected(self) -> bool:
        """Run injected callables (engine thread only).  Returns True if any ran."""
        with self._cv:
            batch, self._injected = self._injected, []
        for fn, args in batch:
            fn(*args)
        return bool(batch)

    # -- pacing ----------------------------------------------------------------
    def _wall_deadline(self, sim_time: float) -> float:
        return self._wall_anchor + (sim_time - self._sim_anchor) * self.factor

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run with wall-clock pacing (see :meth:`SimulationEngine.run`)."""
        self._wall_anchor = _time.monotonic()
        self._sim_anchor = self._now
        self._running = True
        try:
            if isinstance(until, Event):
                return self._run_until_event(until)
            if until is None:
                self._run_until_drained(None)
                return None
            deadline = float(until)
            self._run_until_drained(deadline)
            self._now = max(self._now, deadline)
            return None
        finally:
            self._running = False

    def _wait_for_next(self, sim_deadline: Optional[float]) -> bool:
        """Sleep until the next event is due or an injection arrives.

        Returns True when an event is ready to step, False when the engine
        should stop (no events, nothing injected, deadline exhausted).
        """
        while True:
            if self._drain_injected():
                # Injections may have scheduled new, earlier events.
                continue
            self._prune_cancelled()
            heap, nowq = self._heap, self._nowq
            if not heap and not nowq:
                # Nothing to do: wait briefly for possible injections.
                with self._cv:
                    if not self._injected:
                        got = self._cv.wait(timeout=0.01)
                        if not got:
                            return False
                continue
            if heap:
                next_sim = heap[0][0]
                if nowq and nowq[0] < heap[0]:
                    next_sim = nowq[0][0]
            else:
                next_sim = nowq[0][0]
            if sim_deadline is not None and next_sim > sim_deadline:
                return False
            if self.factor <= 0:
                return True
            wall_target = self._wall_deadline(next_sim)
            remaining = wall_target - _time.monotonic()
            if remaining <= 0:
                return True
            with self._cv:
                if self._injected:
                    continue
                self._cv.wait(timeout=min(remaining, 0.05))

    def _run_until_drained(self, deadline: Optional[float]) -> None:
        while self._wait_for_next(deadline):
            self.step()

    def _run_until_event(self, stop_event: Event) -> Any:
        while not stop_event.processed:
            if not self._wait_for_next(None):
                # Idle but the stop event may arrive via injection; keep
                # spinning only if anything could still inject.  Heuristic:
                # block briefly, then re-check.
                with self._cv:
                    self._cv.wait(timeout=0.01)
                if not self._heap and not self._nowq and \
                        not self._injected and not stop_event.triggered:
                    continue
                continue
            self.step()
        if stop_event._ok is False:
            stop_event._defused = True
            raise stop_event._value
        return stop_event._value
