"""ServiceClient: issues inference requests and decomposes response time.

Reproduces the paper's measurement methodology (§IV): for every request the
client records the total response time (RT) and splits it into

* ``communication`` -- both network legs: RT minus the server-resident span;
* ``service``       -- server-side queueing + parse + serialise;
* ``inference``     -- backend busy window (IT).

On top of the paper's baseline the client understands the adaptive data
plane's admission control: a service whose bounded queue is full replies
``busy`` instead of queueing forever, and the client retries with jittered
exponential backoff (:data:`BACKOFF_BASE_S` doubling per retry up to
:data:`BACKOFF_CAP_S`; re-picking the target when a load balancer is in
play).  An optional per-request timeout bounds the wait on a dead or
drained instance; timed-out requests are retried like busy ones.  Load
balancer in-flight accounting is maintained around every attempt, so no
exit path (reply, busy, timeout, interrupt) leaks a ``record_start``.

An attempt is one frame: :meth:`ServiceClient.infer` yields the socket's
reply event itself, and the result is built once, from the reply that ends
the request.  A timeout is one armed timer per attempt: on expiry it
abandons the request and resolves that same reply event with ``None``; a
reply that lands first withdraws it.

Results accumulate on the client, in its :class:`ResultLog`, and feed
:mod:`repro.analytics.metrics`.  The log keeps a request's numbers in one
float array and its service uid and reply payload in one list, the
payload as its values and keys in one tuple that a row shares with the
row before while the replies repeat object for object; reading a row
builds the :class:`InferenceResult` again, field for field what ``infer``
returned.  A drive of 128k noop requests therefore keeps no object per
request, and gives the cyclic collector nothing new to traverse.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from operator import is_
from struct import Struct
from typing import (TYPE_CHECKING, Any, Dict, Iterator, List, Optional,
                    Sequence, Union)

from ..comm.message import Address, Message
from ..utils.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from .load_balancer import LoadBalancer

__all__ = ["InferenceResult", "RequestTimeout", "ResultLog", "ServiceClient"]

log = get_logger("core.client")

#: backoff before the first retry (seconds); it doubles per retry, jittered
#: by a factor drawn from [0.5, 1.5)
BACKOFF_BASE_S = 0.05
#: ceiling of the un-jittered backoff (seconds)
BACKOFF_CAP_S = 5.0


class RequestTimeout(Exception):
    """A request got no reply within the client's timeout (after retries)."""


@dataclass(slots=True)
class InferenceResult:
    """Timing decomposition and payload of one request/reply exchange."""

    client_uid: str
    service_uid: str
    ok: bool
    submitted_at: float
    completed_at: float
    response_time: float          # RT: total round trip
    communication: float          # both wire legs
    service_time: float           # queue + parse + serialize (server side)
    inference_time: float         # backend busy window (IT)
    queue_time: float             # part of service_time spent waiting
    payload: Dict[str, Any] = field(default_factory=dict)
    retries: int = 0              # busy/timeout retries before this reply

    @property
    def text(self) -> str:
        return self.payload.get("text", "")

    @property
    def busy(self) -> bool:
        """True when the final reply was an admission-control rejection."""
        return bool(self.payload.get("busy", False))


#: numbers per row in a :class:`ResultLog`'s float array: submitted_at,
#: completed_at, service_time, inference_time, queue_time, ok, retries
_WIDTH = 7
_pack_row = Struct(f"{_WIDTH}d").pack
#: the form of an empty payload dict: no values, no keys
_EMPTY_FORM = ((),)


class ResultLog:
    """Append-only columnar log of one client's :class:`InferenceResult` rows.

    A row's numbers are seven doubles in one ``array('d')``
    (``submitted_at``, ``completed_at``, ``service_time``,
    ``inference_time``, ``queue_time``, ``ok``, ``retries``; a double holds
    the bool and the retry count exactly), its ``service_uid`` and reply
    ``payload`` two slots of one list, and ``client_uid`` is kept once.
    ``response_time`` and ``communication`` are not stored: a read
    recomputes them with :meth:`ServiceClient._decompose`'s expressions,
    so every float matches bit for bit.

    A ``dict`` payload is kept as its *form*, one tuple of its values
    followed by the tuple of its keys.  A row whose keys are the very
    objects of the row before's, in the same order, shares that keys
    tuple; one whose values are too shares the whole form, so replies that
    repeat object for object (a noop service's) add no object per row.
    The test is identity, never ``==``: ``True`` / ``1`` / ``1.0``,
    ``0.0`` / ``-0.0`` and NaN stay apart.  Any other payload (``None``, a
    ``dict`` subclass) is kept as it is, in a form whose keys are None.

    ``len``, an int index (negative too), a slice (a list), iteration in
    append order and ``==`` with a list or another log read it.  Each read
    builds a fresh :class:`InferenceResult` and the log holds none: a read
    row is a snapshot, and changing its fields does not change the log.
    Its ``payload`` is a fresh dict of the form's keys and values, the
    very objects of the reply's, so mutating it changes neither the log
    nor any other read.
    """

    __slots__ = ("client_uid", "_nums", "_refs", "_form", "_read_form",
                 "_read_dict")

    def __init__(self, client_uid: str) -> None:
        self.client_uid = client_uid
        self._nums = array("d")
        self._refs: List[Any] = []     # service_uid, form, ...
        self._form: tuple = _EMPTY_FORM    # the last row's
        # the last dict form read and its dict, which every read of that
        # form copies: a copy costs an eighth of building from the form
        self._read_form: Optional[tuple] = None
        self._read_dict: Dict[str, Any] = {}

    def append(self, result: InferenceResult) -> None:
        """Keep *result*; refuse one whose ``client_uid``, ``response_time``
        or ``communication`` a read would not give back."""
        t0, t1 = result.submitted_at, result.completed_at
        service_time, inference = result.service_time, result.inference_time
        rt = t1 - t0
        if (result.client_uid != self.client_uid or result.response_time != rt
                or result.communication != rt - service_time - inference):
            raise ValueError(f"{self.client_uid}: {result!r} is not a row "
                             f"this log can read back")
        # one packed write: array.extend converts item by item, 2.5x slower
        self._nums.frombytes(_pack_row(t0, t1, service_time, inference,
                                       result.queue_time, result.ok,
                                       result.retries))
        payload, form = result.payload, self._form
        if type(payload) is dict:
            keys = form[-1]
            if (keys is None or len(keys) != len(payload)
                    or not all(map(is_, payload, keys))):
                keys = tuple(payload)
                form = (*payload.values(), keys)
            elif not all(map(is_, payload.values(), form)):
                form = (*payload.values(), keys)
        else:
            form = (payload, None)
        self._form = form
        self._refs += (result.service_uid, form)

    def clear(self) -> None:
        self._nums = array("d")
        self._refs = []
        self._form = _EMPTY_FORM
        self._read_form, self._read_dict = None, {}

    def _payload(self, form: tuple) -> Any:
        """A fresh dict of *form*'s keys and values (or the kept payload
        that is not a dict)."""
        if form is not self._read_form:
            keys = form[-1]
            if keys is None:
                return form[0]
            self._read_form, self._read_dict = form, dict(zip(keys, form))
        return self._read_dict.copy()

    def _row(self, service_uid: str, form: tuple, t0: float, t1: float,
             service_time: float, inference: float, queue: float,
             ok: float, retries: float) -> InferenceResult:
        rt = t1 - t0
        return InferenceResult(
            self.client_uid, service_uid, ok != 0.0, t0, t1, rt,
            rt - service_time - inference, service_time, inference, queue,
            self._payload(form), int(retries))

    def __len__(self) -> int:
        return len(self._refs) >> 1

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("result index out of range")
        k = index * _WIDTH
        return self._row(self._refs[2 * index], self._refs[2 * index + 1],
                         *self._nums[k:k + _WIDTH])

    def __iter__(self) -> Iterator[InferenceResult]:
        refs, nums = iter(self._refs), iter(self._nums)
        row = self._row
        for ref in zip(refs, refs, nums, nums, nums, nums, nums, nums, nums):
            yield row(*ref)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (list, ResultLog)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class ServiceClient:
    """A client task issuing requests to service endpoints."""

    def __init__(self, session: "Session", platform: str,
                 max_retries: int = 6,
                 timeout_s: Optional[float] = None) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        self.session = session
        self.uid = session.ids.generate("client")
        self.platform = platform
        self.socket = session.bus.connect(platform, name=f"{self.uid}.sock")
        self.results = ResultLog(self.uid)
        self.max_retries = max_retries
        self.timeout_s = timeout_s
        self._rng = session.rng(f"client.{self.uid}")
        # -- statistics --
        self.busy_replies = 0
        self.timeouts = 0
        self.retries = 0

    # -- single request -------------------------------------------------------------
    def infer(self, target: Address, prompt: str,
              params: Optional[Dict[str, Any]] = None,
              balancer: Optional["LoadBalancer"] = None,
              targets: Optional[Sequence[Address]] = None):
        """Process body: one request/reply; returns :class:`InferenceResult`.

        Use as ``result = yield from client.infer(addr, "...")`` inside a
        simulation process.  Busy replies (bounded-queue shedding) and
        timeouts are retried up to ``max_retries`` times with jittered
        exponential backoff; when *balancer* (and optionally *targets*) are
        given, each retry re-picks the target and the balancer's in-flight
        accounting is updated on every exit path.
        """
        engine = self.session.engine
        payload = {"op": "infer", "prompt": prompt, "params": params or {}}
        t_first = engine.now
        attempt = 0
        while True:
            if balancer is not None:
                balancer.record_start(target)
            try:
                event = self.socket.request(target, payload)
                if self.timeout_s is not None:
                    timer = engine.call_later(self.timeout_s, self._expire,
                                              event)
                reply = yield event
            finally:
                if balancer is not None:
                    balancer.record_done(target)

            if reply is not None:
                # withdraw the timer if still armed (a fired one is pooled)
                if self.timeout_s is not None and timer.arg is event:
                    timer.cancel()
                if not (reply.payload or {}).get("busy", False):
                    break
                self.busy_replies += 1
            else:
                self.timeouts += 1

            if attempt >= self.max_retries:
                if reply is None:
                    raise RequestTimeout(
                        f"{self.uid}: no reply from {target} after "
                        f"{attempt + 1} attempts")
                # Shed on every attempt: surface the busy result, spanning
                # the whole retry window like the success path does.
                break

            attempt += 1
            self.retries += 1
            yield engine.timeout(self._backoff(attempt))
            if balancer is not None and targets:
                target = balancer.pick(targets)
            payload = dict(payload)     # a retry is a request of its own
        result = self._decompose(reply, t_first, engine.now, attempt)
        self.results.append(result)
        return result

    def _expire(self, event) -> None:
        """An attempt's timer: abandon the request and resume its wait with
        None, unless a reply landing this same instant resolved it."""
        if self.socket.cancel_request(event):
            event.succeed(None)

    def _backoff(self, attempt: int) -> float:
        """Jittered exponential backoff before retry number *attempt*."""
        base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** (attempt - 1)))
        return float(base * self._rng.uniform(0.5, 1.5))

    def ping(self, target: Address):
        """Process body: liveness probe; returns round-trip seconds."""
        engine = self.session.engine
        t0 = engine.now
        yield self.socket.request(target, {"op": "ping"})
        return engine.now - t0

    def _decompose(self, reply: Message, t0: float, t1: float,
                   retries: int) -> InferenceResult:
        """Split the round trip *t0* -> *t1* that *reply* ended."""
        meta = reply.meta
        payload = reply.payload or {}
        received = meta.get("received_at", t1)
        dequeued = meta.get("dequeued_at", received)
        infer_start = meta.get("infer_start_at", dequeued)
        infer_stop = meta.get("infer_stop_at", infer_start)
        replied = meta.get("replied_at", infer_stop)
        rt = t1 - t0
        inference = infer_stop - infer_start
        service_time = replied - received - inference
        # positional, in field order: a keyword call costs twice as much
        return InferenceResult(
            self.uid, meta.get("service_uid", "?"),
            bool(payload.get("ok", False)),
            t0, t1, rt,
            rt - service_time - inference,    # communication
            service_time, inference,
            dequeued - received,              # queue_time
            payload, retries)

    # -- request streams --------------------------------------------------------------
    def run_workload(self, targets, n_requests: int,
                     prompt: str = "noop",
                     params: Optional[Dict[str, Any]] = None,
                     balancer: Optional["LoadBalancer"] = None):
        """Process body: issue *n_requests* sequentially (the paper's client).

        Each client sends a fixed number of requests (1024 in Exp 2/3) one
        after another; the target for each request comes from the load
        balancer (round-robin by default over *targets*).  *targets* may be
        a static address sequence or a zero-argument callable returning the
        currently-available addresses (autoscaled fleets grow and shrink
        between requests).  Returns the list of the rows it added to
        :attr:`results`, read back from the log.
        """
        from .load_balancer import RoundRobinBalancer  # avoid cycle

        engine = self.session.engine
        resolve = targets if callable(targets) else (lambda: targets)
        if not callable(targets) and not targets:
            raise ValueError("run_workload needs at least one target")
        balancer = balancer or RoundRobinBalancer()
        start = len(self.results)
        for _ in range(n_requests):
            current = list(resolve())
            while not current:
                # Fleet momentarily empty (autoscaler rebuilding): wait.
                yield engine.timeout(0.1)
                current = list(resolve())
            target = balancer.pick(current)
            yield from self.infer(target, prompt, params, balancer=balancer,
                                  targets=current)
        return self.results[start:]

    def clear(self) -> None:
        self.results.clear()
