"""Shared-resource primitives for simulation processes.

* :class:`Resource`        -- capacity-limited slots (e.g. GPU slots).
* :class:`PriorityResource`-- same, granting lower-priority-number first.
* :class:`Store`           -- FIFO object store (queues between components).
* :class:`FilterStore`     -- store whose gets match a predicate (e.g. "a
  node with >= 2 free GPUs").
* :class:`Container`       -- continuous level (e.g. bytes of storage).

All operations return events; processes ``yield`` them.  The one exception
is :meth:`Store.put_nowait`, for producers that never wait for room: it
deposits without allocating or scheduling a :class:`StorePut`.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional

from .events import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import SimulationEngine

__all__ = [
    "Request",
    "Resource",
    "PriorityResource",
    "StorePut",
    "StoreGet",
    "Store",
    "FilterStore",
    "Container",
]


class Request(Event):
    """A pending or granted claim on a :class:`Resource`."""

    __slots__ = ("resource", "priority", "granted")

    def __init__(self, resource: "Resource", priority: int = 0) -> None:
        super().__init__(resource.engine)
        self.resource = resource
        self.priority = priority
        self.granted = False

    def cancel(self) -> None:
        """Withdraw an ungranted request (granted ones must be released)."""
        if self.granted:
            raise RuntimeError("cannot cancel a granted request; release it")
        self.resource._withdraw(self)

    # Support `with resource.request() as req: yield req` style usage.
    def __enter__(self) -> "Request":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        if self.granted:
            self.resource.release(self)
        elif not self.triggered:
            self.cancel()


class Resource:
    """A capacity-limited resource granting requests FIFO."""

    def __init__(self, engine: "SimulationEngine", capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self._users: List[Request] = []
        self._queue: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of granted (active) requests."""
        return len(self._users)

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for capacity."""
        return len(self._queue)

    def request(self, priority: int = 0) -> Request:
        """Claim one slot; the returned event triggers when granted."""
        req = Request(self, priority)
        self._enqueue(req)
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Return a granted slot and hand it to the next waiter."""
        if request not in self._users:
            raise RuntimeError("releasing a request that does not hold the resource")
        self._users.remove(request)
        request.granted = False
        self._grant()

    # -- queue management (overridden by PriorityResource) --------------------
    def _enqueue(self, request: Request) -> None:
        self._queue.append(request)

    def _dequeue(self) -> Optional[Request]:
        return self._queue.popleft() if self._queue else None

    def _withdraw(self, request: Request) -> None:
        try:
            self._queue.remove(request)
        except ValueError:
            pass

    def _grant(self) -> None:
        while len(self._users) < self.capacity:
            req = self._dequeue()
            if req is None:
                return
            req.granted = True
            self._users.append(req)
            req.succeed(req)


class PriorityResource(Resource):
    """A resource granting waiters in (priority, arrival) order."""

    def __init__(self, engine: "SimulationEngine", capacity: int = 1) -> None:
        super().__init__(engine, capacity)
        self._pqueue: List[tuple] = []
        self._seq = itertools.count()
        self._withdrawn: set = set()

    @property
    def queue_length(self) -> int:
        return len(self._pqueue) - len(self._withdrawn)

    def _enqueue(self, request: Request) -> None:
        heapq.heappush(self._pqueue, (request.priority, next(self._seq), request))

    def _dequeue(self) -> Optional[Request]:
        while self._pqueue:
            _, _, req = heapq.heappop(self._pqueue)
            if req in self._withdrawn:
                self._withdrawn.discard(req)
                continue
            return req
        return None

    def _withdraw(self, request: Request) -> None:
        self._withdrawn.add(request)


class StorePut(Event):
    """Pending put into a :class:`Store`."""

    __slots__ = ("item",)

    def __init__(self, store: "Store", item: Any) -> None:
        super().__init__(store.engine)
        self.item = item


class StoreGet(Event):
    """Pending get from a :class:`Store`."""

    __slots__ = ("predicate",)

    def __init__(self, store: "Store",
                 predicate: Optional[Callable[[Any], bool]] = None) -> None:
        super().__init__(store.engine)
        self.predicate = predicate


class Store:
    """FIFO object store with optional bounded capacity."""

    def __init__(self, engine: "SimulationEngine",
                 capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._putters: Deque[StorePut] = deque()
        self._getters: Deque[StoreGet] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Deposit *item*; triggers once there is room."""
        event = StorePut(self, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def put_nowait(self, item: Any) -> None:
        """Deposit *item* now, without a :class:`StorePut` event.

        For producers that discard the put event: same items to the same
        getters in the same order as :meth:`put`, one kernel event fewer.
        Raises when the store has no room or earlier putters still wait.
        """
        if self._putters or len(self.items) >= self.capacity:
            raise RuntimeError("put_nowait on a full store")
        self.items.append(item)
        if self._getters:
            self._match_getter()

    def get(self) -> StoreGet:
        """Withdraw the oldest item; triggers once one is available."""
        event = StoreGet(self)
        self._getters.append(event)
        self._dispatch()
        return event

    # -- matching logic (overridden by FilterStore) ---------------------------
    def _match_getter(self) -> bool:
        """Serve the first waiting getter if an item is available."""
        if not self._getters or not self.items:
            return False
        getter = self._getters.popleft()
        getter.succeed(self.items.popleft())
        return True

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            # Admit putters while there is room.
            while self._putters and len(self.items) < self.capacity:
                putter = self._putters.popleft()
                self.items.append(putter.item)
                putter.succeed()
                progress = True
            if self._match_getter():
                progress = True


class FilterStore(Store):
    """Store whose getters may require items to satisfy a predicate."""

    def get(self, predicate: Optional[Callable[[Any], bool]] = None) -> StoreGet:  # type: ignore[override]
        event = StoreGet(self, predicate)
        self._getters.append(event)
        self._dispatch()
        return event

    def _match_getter(self) -> bool:
        for getter in list(self._getters):
            pred = getter.predicate or (lambda _x: True)
            for idx, item in enumerate(self.items):
                if pred(item):
                    del self.items[idx]
                    self._getters.remove(getter)
                    getter.succeed(item)
                    return True
        return False


class Container:
    """A continuous resource level (bytes, watts, ...) with blocking put/get."""

    def __init__(self, engine: "SimulationEngine",
                 capacity: float = float("inf"), init: float = 0.0) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 <= init <= capacity:
            raise ValueError("init level out of range")
        self.engine = engine
        self.capacity = capacity
        self._level = float(init)
        self._putters: Deque[tuple] = deque()
        self._getters: Deque[tuple] = deque()

    @property
    def level(self) -> float:
        return self._level

    def put(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = Event(self.engine)
        self._putters.append((event, amount))
        self._dispatch()
        return event

    def get(self, amount: float) -> Event:
        if amount <= 0:
            raise ValueError("amount must be positive")
        event = Event(self.engine)
        self._getters.append((event, amount))
        self._dispatch()
        return event

    def _dispatch(self) -> None:
        progress = True
        while progress:
            progress = False
            if self._putters:
                event, amount = self._putters[0]
                if self._level + amount <= self.capacity:
                    self._putters.popleft()
                    self._level += amount
                    event.succeed()
                    progress = True
            if self._getters:
                event, amount = self._getters[0]
                if amount <= self._level:
                    self._getters.popleft()
                    self._level -= amount
                    event.succeed()
                    progress = True
