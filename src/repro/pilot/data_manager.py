"""DataManager: staging of task input/output data over the data subsystem.

The paper collects "existing data capabilities into a DataManager" (§III,
Fig. 2).  The seed implementation was a stopwatch: directives replayed
sequentially, every transfer billed at full link bandwidth, no memory of
what had already been moved.  This DataManager sits on the session's
:class:`repro.data.DataServices` instead:

* directives are **content-addressed** -- the same input staged by many
  tasks/iterations is one object with replicas, so warm-cache hits are free
  and concurrent stages of one object to one platform are coalesced
  (in-flight dedup);
* independent directives run **concurrently** (each a Routine started and
  counted down by :meth:`DataManager.stage`, not a process of its own), and
  concurrent transfers on one fabric link fair-share its bandwidth
  (:class:`repro.data.TransferScheduler`);
* completed transfers record **copies** (durable at the data's origin,
  warm-tier at the task platform), which feeds the TaskManager's
  data-affinity placement;
* ``link`` directives are free and are *not* counted as moved bytes.

A transfer's expected cost, for choosing among sources, is
:meth:`repro.data.TransferScheduler.estimate` (contention-aware, draws no
random numbers); the time it actually takes comes from staging it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..data.objects import DataObject
from ..data.transfers import TransferAborted
from ..sim.events import Event, Interrupt, Routine
from .description import StagingDirective

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session

__all__ = ["DataManager"]

#: the platform a task's non-copy directives stage from (stage-in) and to
#: (stage-out): the client side of the run
CLIENT_PLATFORM = "localhost"


class _FanOut:
    """The join of one :meth:`DataManager.stage` call: a counter."""

    __slots__ = ("pending", "errors", "join")

    def __init__(self) -> None:
        self.pending = 0
        self.errors: Dict[int, BaseException] = {}   # by directive index
        self.join: Optional[Event] = None   # made only if a child waited

    def child_done(self, index: int, ok: bool, value) -> None:
        """Exit of one directive's Routine (never fails the engine: an
        error is kept for :meth:`DataManager.stage` to re-raise)."""
        self.pending -= 1
        if not ok:
            self.errors[index] = value
        if not self.pending and self.join is not None:
            self.join.succeed()


class DataManager:
    """Executes staging directives concurrently, without a process each.

    :meth:`stage` is the one generator of a staging call (its caller runs
    it as a Routine or ``yield from``-s it); the directives are Routines it
    starts and counts down, and a directive that has nothing to wait for --
    a link, a warm replica -- costs no kernel entry at all.
    """

    def __init__(self, session: "Session") -> None:
        self.session = session
        self.uid = session.ids.generate("dmgr")
        self.data = session.data
        #: bytes actually moved over the fabric (free links/hits excluded)
        self.bytes_transferred = 0.0
        #: bytes a warm cache / in-flight dedup made free
        self.bytes_saved = 0.0
        self.cache_hits = 0
        self.cache_misses = 0
        self.dedup_hits = 0
        self.links_total = 0
        #: wall time of each real transfer this manager performed
        self.transfer_wait_s: List[float] = []
        obs = session.observability
        self._obs = obs
        self._obs_metrics = obs.metrics if obs is not None else None

    # -- endpoint/geometry helpers ----------------------------------------------
    def _endpoints(self, directive: StagingDirective, task_platform: str,
                   phase: str = "stage_in") -> Tuple[str, str]:
        """(src, dst) platforms for one directive in one phase."""
        if directive.action == "copy":
            return task_platform, task_platform
        if phase == "stage_out":
            return task_platform, CLIENT_PLATFORM
        return CLIENT_PLATFORM, task_platform

    # -- staging -----------------------------------------------------------------
    def stage(self, directives: Iterable[StagingDirective],
              task_platform: str, uid: str, phase: str):
        """Generator: perform directives *concurrently*.

        Records ``<phase>_start`` / ``<phase>_stop`` profile events for the
        owning entity *uid* (phase is ``stage_in`` or ``stage_out``).
        Returns the number of directives performed; the first directive
        failure (if any, lowest directive index) is re-raised after all
        directives settle.

        Each directive's :meth:`_perform` is started, in directive order,
        as a :class:`~repro.sim.events.Routine` inside this generator's own
        kernel entry and counted down in ``pending``.  A directive that
        never waits (link, warm hit) is over before the next one starts;
        only if some child did wait is a join event created, which the last
        child to finish triggers.
        """
        engine = self.session.engine
        profiler = self.session.profiler
        directives = list(directives)
        profiler.record(engine.now, uid, f"{phase}_start", self.uid)
        fanout = _FanOut()
        children = []
        try:
            for index, directive in enumerate(directives):
                fanout.pending += 1
                child = Routine(
                    engine, self._perform(directive, task_platform, phase,
                                          uid), fanout.child_done, index)
                children.append(child)
                child.start()
            if fanout.pending:
                fanout.join = engine.event()
                yield fanout.join
            if fanout.errors:
                raise fanout.errors[min(fanout.errors)]
        except Interrupt:
            # task cancelled: stop the children too, so abandoned transfers
            # free their links instead of contending with live work
            fanout.join = None
            for child in children:
                child.throw(Interrupt("staging cancelled"))
            raise
        finally:
            profiler.record(engine.now, uid, f"{phase}_stop", self.uid)
        return len(directives)

    def _perform(self, directive: StagingDirective, task_platform: str,
                 phase: str, owner_uid: str = ""):
        """Resolve one directive: free link, warm hit, dedup wait or move."""
        data = self.data
        if directive.action == "link":
            # No data movement: do not count toward bytes_transferred.
            self.links_total += 1
            return

        src, dst = self._endpoints(directive, task_platform, phase)
        obj = data.intern(directive.source or directive.target,
                          directive.size_bytes)

        # Warm-hit / dedup shortcuts apply to *inputs* only: stage-in reads
        # immutable shared datasets, but each stage-out carries a freshly
        # produced result -- a name collision with an earlier output must
        # still pay its own transfer.
        metrics = self._obs_metrics
        if phase != "stage_out":
            while True:
                if data.holds(dst, obj.oid):  # warm replica: free
                    data.touch(dst, obj.oid)
                    self.cache_hits += 1
                    self.bytes_saved += obj.size_bytes
                    if metrics is not None:
                        metrics.counter("data_cache_hits_total").inc()
                    return
                pending = data.inflight.get((obj.oid, dst))
                if pending is None or not data.config.dedup_inflight:
                    break
                try:
                    yield pending  # ride the in-flight transfer
                except TransferAborted:
                    continue  # the owner was cancelled: try again ourselves
                self.dedup_hits += 1
                self.bytes_saved += obj.size_bytes
                if metrics is not None:
                    metrics.counter("data_dedup_hits_total").inc()
                return

        # Only inputs register as in-flight (outputs are never dedup
        # targets, and must not shadow a same-named input transfer).
        key = (obj.oid, dst) if phase != "stage_out" else None
        done = self.session.engine.event()
        if key is not None:
            data.inflight[key] = done
        try:
            self.cache_misses += 1
            if metrics is not None:
                metrics.counter("data_cache_misses_total").inc()
            source = self._best_source(src, dst, obj)
            span = None
            obs = self._obs
            if obs is not None and obs.tracer is not None:
                # parent the transfer on the owning task's live root span
                # (falls back to a standalone trace for non-task staging)
                span = obs.tracer.start_span(
                    "transfer", "data",
                    parent=obs.tracer.task_root(owner_uid),
                    attrs={"src": source, "dst": dst,
                           "bytes": obj.size_bytes, "phase": phase})
            try:
                record = yield from data.transfers.transfer(
                    source, dst, obj.size_bytes, uid=self.uid)
            finally:
                if span is not None:
                    obs.tracer.end_span(span)
            self.bytes_transferred += obj.size_bytes
            self.transfer_wait_s.append(record.duration)
            self._register(obj, src, dst, directive.action, phase)
            done.succeed()
        except Interrupt as exc:
            # riders must not inherit our cancellation: hand them a typed
            # abort so they retry the transfer themselves
            if not done.triggered:
                done.fail(TransferAborted(str(exc.cause or "cancelled")))
                done.defuse()
            raise
        except BaseException as exc:
            if not done.triggered:
                done.fail(exc)
                done.defuse()  # waiters observe it; engine must not re-raise
            raise
        finally:
            if key is not None and data.inflight.get(key) is done:
                data.inflight.pop(key, None)

    def _register(self, obj: DataObject, src: str, dst: str, action: str,
                  phase: str) -> None:
        """Copy bookkeeping after a completed move.

        The client-side endpoint holds the durable origin copy; the task
        platform gets an evictable warm-tier copy.
        """
        if action == "copy":
            self.data.register_durable(obj.oid, dst)
            return
        home, platform_side = ((dst, src) if phase == "stage_out"
                               else (src, dst))
        self.data.register_durable(obj.oid, home)
        self.data.admit(platform_side, obj)

    def _best_source(self, default_src: str, dst: str,
                     obj: DataObject) -> str:
        """Cheapest holder to pull from (contention-aware, deterministic)."""
        if default_src == dst:
            return default_src  # intra-platform copy: never reroute remotely
        candidates = set(self.data.holders(obj.oid))
        candidates.add(default_src)
        candidates.discard(dst)  # cannot pull from the destination
        if not candidates:
            return default_src
        known = self.session.fabric.platforms()
        usable = [c for c in candidates if c in known]
        if not usable:
            usable = [default_src]
        if len(usable) == 1:
            return usable[0]
        return min(usable, key=lambda c: (
            self.data.transfers.estimate(c, dst, obj.size_bytes), c))
