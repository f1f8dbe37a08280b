"""ServiceInstance: the running, request-serving side of a service task.

Implements the paper's Service Base Class semantics (§III) extended into an
adaptive data plane.  The paper's baseline -- "services are single-threaded
... queuing further incoming requests" (§IV) with an unbounded inbox -- is
the degenerate configuration (one worker, batch size 1, no queue bound).
Beyond it the instance supports:

* **continuous batching** -- each worker dispatch coalesces up to
  ``host.max_batch_size`` queued requests into one backend call, whose cost
  model (:meth:`~repro.serving.hosts.ServingHost.infer_batch`) scales
  sub-linearly in batch size;
* **bounded admission** -- a request is admitted where it lands: the
  socket hands it to :meth:`ServiceInstance._admit` on arrival (no inbox
  hop, no admission process), which answers control operations inline and
  puts inference requests on an internal queue bounded at
  ``max_queue_depth``; overflowing requests are *shed* with an immediate,
  typed ``busy`` reply instead of queueing forever (clients retry with
  backoff, see :class:`~repro.core.client.ServiceClient`);
* **load telemetry** -- queue depth, in-flight count and an EWMA of the
  marginal per-request service time are published on every heartbeat (both
  on the per-instance topic and the shared
  :data:`~repro.comm.message.TELEMETRY_TOPIC` the registry ingests) by a
  re-armed timer record, not a process, which ``stop()`` withdraws;
* **draining** -- an orderly stop finishes admitted requests while
  shedding new arrivals, so autoscaling down never drops in-flight work.

Request handling records the timestamps the client needs to decompose
response time exactly as the paper does:

* ``received_at``   -- request hit the service inbox (end of comm leg 1);
* ``dequeued_at``   -- a worker picked it up (queue wait = service component);
* ``infer_start_at``/``infer_stop_at`` -- backend busy window (IT);
* ``replied_at``    -- reply handed to the wire (start of comm leg 2).

A batch is answered in one pass: one loop reads every request's prompt,
parameters and size, one builds and sizes every reply, and the replies
leave with their stamps built in place.

The workers stay processes on purpose: a prototype with the request as a
record kept every sim digest, but moved the resume cost out of
``sim.engine`` -- from 1.40-1.44x the next layer of ``service_noop`` to
third (3 quick runs) -- and the benchmark requires it to be the largest.

Supported operations: ``infer``, ``ping`` (liveness/readiness), ``stop``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..comm.bus import ServerSocket
from ..comm.message import TELEMETRY_TOPIC, LoadReport, Message, estimate_size
from ..serving.hosts import ServingHost
from ..sim.events import Interrupt, Process, Ticker
from ..sim.resources import Store
from ..utils.log import get_logger

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = ["ServiceInstance"]

log = get_logger("core.service")

#: EWMA smoothing factor for the marginal per-request service time.
EWMA_ALPHA = 0.25

#: Poll interval while draining admitted work during an orderly stop.
DRAIN_POLL_S = 0.1


class ServiceInstance:
    """Data plane of one service: admission control + batching workers."""

    def __init__(self, session: "Session", uid: str, socket: ServerSocket,
                 host: ServingHost,
                 heartbeat_interval_s: float = 10.0,
                 max_queue_depth: int = 0) -> None:
        if max_queue_depth < 0:
            raise ValueError("max_queue_depth must be >= 0 (0 = unbounded)")
        self.session = session
        self.uid = uid
        self.socket = socket
        self.host = host
        self.heartbeat_interval_s = heartbeat_interval_s
        #: admitted-queue bound; 0 means unbounded (the paper's baseline)
        self.max_queue_depth = max_queue_depth
        self._rng = session.rng(f"service.{uid}")
        self._queue: Store = Store(session.engine)
        self._workers: List[Process] = []
        self._heartbeat: Optional[Ticker] = None
        self._running = False
        self._draining = False
        self._active_dispatches = 0
        self._in_flight = 0
        # -- statistics --
        self.requests_handled = 0
        self.batches_handled = 0
        self.shed_count = 0
        self.busy_time_s = 0.0
        self.max_queue_seen = 0
        self.ewma_service_s = 0.0
        obs = session.observability
        self._obs_metrics = obs.metrics if obs is not None else None
        if self._obs_metrics is not None:
            self._obs_batch_hist = self._obs_metrics.histogram(
                "service_batch_size", {"service": uid},
                buckets=(1, 2, 4, 8, 16, 32, 64, 128))
            depth_gauge = self._obs_metrics.gauge(
                "service_queue_depth", {"service": uid})
            self._obs_metrics.add_poll(
                lambda: depth_gauge.set(self.queue_depth))

    # -- lifecycle ----------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._running

    @property
    def queue_depth(self) -> int:
        """Requests admitted and waiting for a worker.

        The socket term counts requests that landed before :meth:`start`;
        a started service admits on arrival, so it is 0 from then on.
        """
        return len(self._queue) + self.socket.pending

    @property
    def in_flight(self) -> int:
        """Requests currently being processed by workers."""
        return self._in_flight

    def start(self) -> None:
        """Spawn worker loops (one per slot), arm heartbeats; admit arrivals.

        Requests that landed since ``bind`` are admitted now, oldest first.
        """
        if self._running:
            raise RuntimeError(f"{self.uid} already started")
        self._running = True
        engine = self.session.engine
        self.socket.handle_with(self._admit)
        for _ in range(self.host.max_concurrency):
            self._workers.append(engine.process(self._worker()))
        self._heartbeat = Ticker(engine, self._beat)

    def stop(self) -> None:
        """Stop serving immediately: all loops are interrupted.

        Admitted-but-unserved requests are dropped (their clients see a
        timeout, like a crashed server).  For an orderly shutdown run
        :meth:`drain` first.
        """
        if not self._running:
            return
        self._running = False
        for worker in self._workers:
            if worker.is_alive:
                worker.interrupt("service stopping")
        self._workers.clear()
        if self._heartbeat is not None:
            self._heartbeat.interrupt("service stopping")
            self._heartbeat = None
        self.socket.close()

    def drain(self, then: Callable[[], Any]) -> None:
        """Shed new work; ``then()`` once the admitted work is done (now, or
        at a ``DRAIN_POLL_S`` poll) or the instance stopped.  Call before
        :meth:`stop`: every admitted request still gets its reply."""
        self._draining = True
        if self._running and (len(self._queue) or self._in_flight):
            self.session.engine.call_later(DRAIN_POLL_S, self.drain, then)
        else:
            then()

    # -- telemetry ------------------------------------------------------------------
    def load_report(self) -> LoadReport:
        """Snapshot of this instance's load for heartbeats/registry."""
        return LoadReport(
            uid=self.uid,
            t=self.session.engine.now,
            queue_depth=len(self._queue),
            in_flight=self._in_flight,
            ewma_service_s=self.ewma_service_s,
            handled=self.requests_handled,
            shed=self.shed_count,
            workers=self.host.max_concurrency,
            max_batch_size=self.host.max_batch_size,
            queue_bound=self.max_queue_depth,
        )

    def _beat(self, _: Any) -> Optional[float]:
        """One heartbeat, published on both topics (the ticker's handler)."""
        if not self._running:
            return None
        report = self.load_report()
        # Legacy liveness keys plus the full report; the remaining
        # telemetry fields live in the report, not flattened copies.
        payload = {
            "uid": self.uid, "t": self.session.engine.now,
            "queue": report.queue_depth,
            "handled": report.handled,
            "load": report,
        }
        self.session.bus.publish(f"heartbeat.{self.uid}", payload,
                                 sender=self.socket.address)
        self.session.bus.publish(TELEMETRY_TOPIC, report,
                                 sender=self.socket.address)
        return self.heartbeat_interval_s

    # -- admission ------------------------------------------------------------------
    def _admit(self, msg: Message) -> None:
        """Admit one landed message into the bounded internal queue.

        Control operations (``ping``/``stop``) are handled inline so
        liveness probes never wait behind queued inference work.  Inference
        requests beyond ``max_queue_depth`` are shed with a ``busy`` reply.
        A message landing on a stopped instance is dropped.
        """
        if not self._running:
            return
        payload = msg.payload or {}
        op = payload.get("op", "infer")
        if op == "infer":
            if self._draining or (
                    self.max_queue_depth
                    and len(self._queue) >= self.max_queue_depth):
                self._shed(msg)
                return
            self._queue.put_nowait(msg)
            depth = len(self._queue.items)
            if depth > self.max_queue_seen:
                self.max_queue_seen = depth
            return
        now = self.session.engine.now
        if op == "ping":
            self.socket.reply(msg, {"ok": True, "uid": self.uid},
                              meta=self._stamp(msg, now, now))
        elif op == "stop":
            self.socket.reply(msg, {"ok": True, "stopped": self.uid})
            self.stop()
        else:
            self.socket.reply(
                msg, {"ok": False, "error": f"unknown op {op!r}"},
                meta=self._stamp(msg, now, now))

    def _shed(self, msg: Message) -> None:
        """Reject *msg* with a typed busy reply (no queueing)."""
        now = self.session.engine.now
        self.shed_count += 1
        self.socket.reply(
            msg,
            {"ok": False, "busy": True, "error": "busy",
             "queue_depth": len(self._queue),
             "queue_bound": self.max_queue_depth},
            meta=self._stamp(msg, now, now))

    # -- request handling -------------------------------------------------------------
    def _worker(self):
        try:
            while self._running:
                first: Message = yield self._queue.get()
                batch = [first]
                # Coalesce whatever else is already queued, up to the batch
                # limit.  Items present in the store imply no other getter is
                # waiting, so draining them directly is race-free.
                while (len(batch) < self.host.max_batch_size
                       and len(self._queue)):
                    batch.append(self._queue.items.popleft())
                yield from self._handle_batch(batch)
        except Interrupt:
            return

    def _handle_batch(self, batch: List[Message]):
        engine = self.session.engine
        rng = self._rng
        n = len(batch)
        dequeued_at = engine.now
        self._in_flight += n
        self._active_dispatches += 1
        try:
            prompts, params_list, nbytes = [], [], 0
            for msg in batch:
                payload = msg.payload or {}
                prompts.append(payload.get("prompt", ""))
                params_list.append(payload.get("params") or {})
                nbytes += msg.nbytes
            # Parse/deserialise the coalesced requests (vectorised decode:
            # one dispatch overhead plus the per-byte cost of every message).
            parse_s = self.host.parse_time(nbytes, rng)
            if parse_s > 0:
                yield engine.timeout(parse_s)

            infer_start_at = engine.now
            results, duration = self.host.infer_batch(
                prompts, rng, params_list, n_active=self._active_dispatches)
            if duration > 0:
                yield engine.timeout(duration)
            infer_stop_at = engine.now

            # size each reply once: serialisation is charged on these sizes
            # and the wire leg reuses them through the message's cache
            replies, nbytes = [], 0
            for result in results:
                reply_payload = {
                    "ok": True,
                    "text": result.text,
                    "model": result.model,
                    "prompt_tokens": result.prompt_tokens,
                    "completion_tokens": result.completion_tokens,
                }
                size = estimate_size(reply_payload)
                nbytes += size
                replies.append((reply_payload, size))
            serialize_s = self.host.serialize_time(nbytes, rng)
            if serialize_s > 0:
                yield engine.timeout(serialize_s)

            replied_at = engine.now
            span = replied_at - dequeued_at
            self.requests_handled += n
            self.batches_handled += 1
            if self._obs_metrics is not None:
                self._obs_batch_hist.observe(n)
            self.busy_time_s += span
            self._update_ewma(span / n)
            reply, uid = self.socket.reply, self.uid
            for msg, (reply_payload, size) in zip(batch, replies):
                reply(msg, reply_payload, {
                    "received_at": msg.received_at,
                    "dequeued_at": dequeued_at,
                    "infer_start_at": infer_start_at,
                    "infer_stop_at": infer_stop_at,
                    "replied_at": replied_at,
                    "service_uid": uid,
                    "batch_size": n,
                    "_nbytes": size,
                })
        finally:
            self._in_flight -= n
            self._active_dispatches -= 1

    def _update_ewma(self, marginal_s: float) -> None:
        if self.ewma_service_s == 0.0:
            self.ewma_service_s = marginal_s
        else:
            self.ewma_service_s = (EWMA_ALPHA * marginal_s
                                   + (1.0 - EWMA_ALPHA) * self.ewma_service_s)

    def _stamp(self, msg: Message, infer_start_at: float,
               infer_stop_at: float,
               dequeued_at: Optional[float] = None,
               batch_size: int = 1) -> Dict[str, Any]:
        """Reply metadata carrying the RT-decomposition timestamps."""
        now = self.session.engine.now
        return {
            "received_at": msg.received_at,
            "dequeued_at": dequeued_at if dequeued_at is not None else now,
            "infer_start_at": infer_start_at,
            "infer_stop_at": infer_stop_at,
            "replied_at": now,
            "service_uid": self.uid,
            "batch_size": batch_size,
        }
