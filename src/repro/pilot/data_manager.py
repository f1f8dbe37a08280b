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
* independent directives run **concurrently** (counted down by a
  :class:`Staging` record, not a process each), and concurrent transfers
  on one fabric link fair-share its bandwidth
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

from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, Tuple

from ..data.objects import DataObject
from ..data.transfers import Transfer, TransferAborted
from ..sim.events import Hook
from .description import StagingDirective

if TYPE_CHECKING:  # pragma: no cover
    from .session import Session

__all__ = ["DataManager", "Staging"]

#: the platform a task's non-copy directives stage from (stage-in) and to
#: (stage-out): the client side of the run
CLIENT_PLATFORM = "localhost"


class Staging:
    """One :meth:`DataManager.stage` call in progress: a fan-out counter.

    Its caller makes it and keeps it as the cancel handle.  Once every
    directive has settled the call lands on ``then(arg, error)``: *error*
    None, or the failure of the lowest directive index.
    """

    __slots__ = ("then", "arg", "manager", "uid", "phase", "pending",
                 "errors", "moves", "join")

    def __init__(self, then: Callable[[Any, Any], None], arg: Any) -> None:
        self.then, self.arg = then, arg
        self.manager: Any = None  # stage() fills in the call
        self.uid = self.phase = ""
        self.pending = 1  # the stage() call itself, until it has started all
        self.errors: Dict[int, BaseException] = {}  # by directive index
        self.moves: List[_Move] = []  # the directives that had to wait
        self.join: Any = None  # the landing armed by the last to settle

    def cancel(self) -> None:
        """Withdraw the call: every directive still waiting lets go, and
        ``<phase>_stop`` is recorded; it never lands."""
        self.manager._withdraw(self)


class _Move:
    """A directive of a :class:`Staging` that waits: as a rider (``wait`` a
    hook on the in-flight event), or on its own transfer (``wait`` the
    :class:`Transfer`, ``done`` the in-flight event of its riders)."""

    __slots__ = ("staging", "index", "directive", "src", "dst", "obj",
                 "wait", "key", "done", "span")

    def __init__(self, staging: Staging, index: int,
                 directive: StagingDirective, src: str, dst: str,
                 obj: DataObject) -> None:
        self.staging, self.index, self.directive = staging, index, directive
        self.src, self.dst, self.obj = src, dst, obj
        self.wait: Any = None
        self.key = self.done = self.span = None


class DataManager:
    """Executes staging directives concurrently, without a process each.

    :meth:`stage` starts every directive of a call in its caller's kernel
    entry.  A directive with nothing to wait for -- a link, a warm replica
    -- costs no kernel entry at all; one that waits lands back here when
    its ride or its transfer ends.
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
              task_platform: str, uid: str, phase: str,
              staging: Staging) -> None:
        """Perform *directives* concurrently; *staging* lands once all did.

        Records ``<phase>_start`` / ``<phase>_stop`` profile events for the
        owning entity *uid* (phase is ``stage_in`` or ``stage_out``).  The
        directives start here, in order; one that never waits (link, warm
        hit) settles before the next one starts.  If none waited the call
        lands before ``stage`` returns, else the last one to settle arms a
        zero-delay landing, the join.  Returns nothing: the caller holds
        *staging*.
        """
        staging.manager, staging.uid, staging.phase = self, uid, phase
        self.session.profiler.record(self.session.engine.now, uid,
                                     f"{phase}_start", self.uid)
        for index, directive in enumerate(directives):
            staging.pending += 1
            if directive.action == "link":
                # No data movement: do not count toward bytes_transferred.
                self.links_total += 1
                self._settle(staging, index, None)
                continue
            src, dst = self._endpoints(directive, task_platform, phase)
            move = _Move(staging, index, directive, src, dst, self.data.intern(
                directive.source or directive.target, directive.size_bytes))
            self._resolve(move)
            if move.wait is not None:
                staging.moves.append(move)
        staging.pending -= 1
        if not staging.pending:
            self._joined(staging)

    def _resolve(self, move: _Move) -> None:
        """Settle *move* as a warm hit, ride the transfer already moving its
        object, or move it: the first that applies."""
        data, obj, dst = self.data, move.obj, move.dst
        phase = move.staging.phase
        metrics = self._obs_metrics
        # Warm-hit / dedup shortcuts apply to *inputs* only: stage-in reads
        # immutable shared datasets, but each stage-out carries a freshly
        # produced result -- a name collision with an earlier output must
        # still pay its own transfer.
        if phase != "stage_out":
            if data.holds(dst, obj.oid):  # warm replica: free
                data.touch(dst, obj.oid)
                self.cache_hits += 1
                self.bytes_saved += obj.size_bytes
                if metrics is not None:
                    metrics.counter("data_cache_hits_total").inc()
                return self._settle(move.staging, move.index, None)
            pending = data.inflight.get((obj.oid, dst))
            if pending is not None and data.config.dedup_inflight:
                move.wait = Hook(pending, self._rode, move)
                return
            # Only inputs register as in-flight (outputs are never dedup
            # targets, and must not shadow a same-named input transfer).
            move.key = (obj.oid, dst)
        move.done = self.session.engine.event()
        if move.key is not None:
            data.inflight[move.key] = move.done
        try:
            self.cache_misses += 1
            if metrics is not None:
                metrics.counter("data_cache_misses_total").inc()
            source = self._best_source(move.src, dst, obj)
            obs = self._obs
            if obs is not None and obs.tracer is not None:
                # parent the transfer on the owning task's live root span
                # (falls back to a standalone trace for non-task staging)
                move.span = obs.tracer.start_span(
                    "transfer", "data",
                    parent=obs.tracer.task_root(move.staging.uid),
                    attrs={"src": source, "dst": dst,
                           "bytes": obj.size_bytes, "phase": phase})
            move.wait = Transfer(source, dst, obj.size_bytes, self.uid,
                                 self._moved, move)
            data.transfers.transfer(move.wait)
        except Exception as exc:
            self._moved(move, exc)

    def _rode(self, move: _Move, error) -> None:
        """The transfer *move* rode on landed."""
        move.wait = None
        if isinstance(error, TransferAborted):
            return self._resolve(move)  # the owner went away: try ourselves
        if error is None:
            self.dedup_hits += 1
            self.bytes_saved += move.obj.size_bytes
            if self._obs_metrics is not None:
                self._obs_metrics.counter("data_dedup_hits_total").inc()
        self._settle(move.staging, move.index, error)

    def _moved(self, move: _Move, error) -> None:
        """*move*'s own transfer landed: record the copies, let the riders
        go."""
        if error is None:
            try:
                self.bytes_transferred += move.obj.size_bytes
                self.transfer_wait_s.append(
                    self.session.engine.now - move.wait.started)
                self._register(move.obj, move.src, move.dst,
                               move.directive.action, move.staging.phase)
            except Exception as exc:
                error = exc
        move.wait = None
        self._close(move, error)
        self._settle(move.staging, move.index, error)

    def _close(self, move: _Move, error) -> None:
        """End *move*'s transfer span; its riders hear *error* or success."""
        if move.span is not None:
            self._obs.tracer.end_span(move.span)
        done = move.done
        if error is None:
            done.succeed()
        else:
            done.fail(error)
            done.defuse()  # riders observe it; the engine must not re-raise
        if move.key is not None and self.data.inflight.get(move.key) is done:
            del self.data.inflight[move.key]

    def _settle(self, staging: Staging, index: int, error) -> None:
        staging.pending -= 1
        if error is not None:
            staging.errors[index] = error
        if not staging.pending:
            staging.join = self.session.engine.call_later(
                0.0, self._joined, staging)

    def _joined(self, staging: Staging) -> None:
        staging.join = None
        staging.moves.clear()  # they point back at it: no cycle left over
        self.session.profiler.record(self.session.engine.now, staging.uid,
                                     f"{staging.phase}_stop", self.uid)
        errors = staging.errors
        staging.then(staging.arg, errors[min(errors)] if errors else None)

    def _withdraw(self, staging: Staging) -> None:
        """Cancel *staging*: abandoned transfers free their links instead
        of contending with live work, and their riders get a typed abort
        so they retry the transfer themselves."""
        if staging.join is not None:
            staging.join.cancel()
        for move in staging.moves:
            wait, move.wait = move.wait, None
            if wait is not None:  # not settled yet
                wait.cancel()
                if move.done is not None:  # its own transfer, not a ride
                    self._close(move, TransferAborted("staging cancelled"))
        staging.moves.clear()
        self.session.profiler.record(self.session.engine.now, staging.uid,
                                     f"{staging.phase}_stop", self.uid)

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
        known = self.session.fabric.platforms()
        # sorted: estimate() creates links, and their order must not follow
        # the string hash of the platform names
        usable = sorted(c for c in candidates if c in known)
        if not usable:
            usable = [default_src]
        if len(usable) == 1:
            return usable[0]
        return min(usable, key=lambda c: (
            self.data.transfers.estimate(c, dst, obj.size_bytes), c))
