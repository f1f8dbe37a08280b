"""Contention-aware transfer scheduling over the fabric's links.

The seed runtime replayed staging directives sequentially, each transfer
seeing the link's full bandwidth regardless of what else was in flight.
The :class:`TransferScheduler` replaces that with one
:class:`~repro.hpc.network.SharedLink` per fabric route: independent
directives move *concurrently* as :class:`Transfer` records, and concurrent
flows on the same link fair-share its capacity -- so three parallel 1 GB
stages on one 1 GB/s WAN link still take ~3 s of wall time, but stages on
*different* links overlap for free and the one-way latency of each transfer
is paid concurrently rather than in series.

Every completed transfer stays in :attr:`TransferScheduler.records`, a
:class:`TransferLog`: three doubles and three references per transfer, a
:class:`TransferRecord` built only when one is read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import eq
from typing import (TYPE_CHECKING, Any, Callable, Dict, Iterator, List,
                    Optional, Tuple, Union)

from ..hpc.network import Fabric, SharedLink
from ..sim.events import Hook

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session

__all__ = ["Transfer", "TransferAborted", "TransferLog", "TransferRecord",
           "TransferScheduler"]


class TransferAborted(Exception):
    """An in-flight transfer was cancelled (e.g. its task was cancelled),
    or a link flap or a corrupt arrival failed it: what in-flight dedup
    riders read as "the owner went away, retry yourself"."""


@dataclass(frozen=True)
class TransferRecord:
    """Outcome of one completed transfer."""

    src: str
    dst: str
    nbytes: float
    started: float
    finished: float
    uid: str = ""

    @property
    def duration(self) -> float:
        return self.finished - self.started


class TransferLog:
    """Append-only columnar log of completed transfers: ``nbytes``,
    ``started`` and ``finished`` as three doubles of one ``array('d')``,
    ``src``, ``dst`` and ``uid`` as three slots of one list.

    ``len``, an int index (negative too), a slice (a list), iteration in
    append order and ``==`` with a list or another log read it; each read
    builds a fresh :class:`TransferRecord`, and the log holds none.
    """

    __slots__ = ("_nums", "_refs")

    def __init__(self) -> None:
        self._nums = array("d")  # nbytes, started, finished, ...
        self._refs: List[str] = []  # src, dst, uid, ...

    def add(self, src: str, dst: str, nbytes: float, started: float,
            finished: float, uid: str) -> None:
        """Keep one completed transfer."""
        self._nums.extend((nbytes, started, finished))
        self._refs += (src, dst, uid)

    def __len__(self) -> int:
        return len(self._nums) // 3

    def __getitem__(self, index: Union[int, slice]):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError("transfer index out of range")
        k = 3 * index
        src, dst, uid = self._refs[k:k + 3]
        nbytes, started, finished = self._nums[k:k + 3]
        return TransferRecord(src, dst, nbytes, started, finished, uid)

    def __iter__(self) -> Iterator[TransferRecord]:
        refs, nums = iter(self._refs), iter(self._nums)
        for src, dst, uid, nbytes, started, finished in zip(
                refs, refs, refs, nums, nums, nums):
            yield TransferRecord(src, dst, nbytes, started, finished, uid)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, TransferLog)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class Transfer:
    """One transfer in flight: made by its caller, who keeps it as the
    cancel handle.  :meth:`TransferScheduler.transfer` starts it, and it
    lands on ``then(arg, error)`` -- *error* None, or what failed it --
    inside the kernel entry that ended it."""

    __slots__ = ("src", "dst", "nbytes", "uid", "then", "arg", "started",
                 "wait", "link")

    def __init__(self, src: str, dst: str, nbytes: float, uid: str,
                 then: Callable[[Any, Any], None], arg: Any) -> None:
        self.src, self.dst, self.nbytes, self.uid = src, dst, nbytes, uid
        self.then, self.arg = then, arg
        self.started = 0.0
        self.wait: Any = None  # the latency timer, then the flow's hook
        self.link: Optional[SharedLink] = None  # once the payload flows

    def cancel(self) -> None:
        """Withdraw the latency timer, or the flow: its link is freed for
        the other flows at once."""
        wait, self.wait = self.wait, None
        if wait is not None:
            wait.cancel()
            if self.link is not None:
                self.link.abort(wait.event)


class TransferScheduler:
    """Runs transfers over shared-bandwidth links, one per fabric route."""

    def __init__(self, session: "Session") -> None:
        self.session = session
        self._links: Dict[Tuple[str, str], SharedLink] = {}
        self.records = TransferLog()
        self.bytes_moved = 0.0
        #: optional fault hook set by the resilience FaultInjector:
        #: ``corruption_check(src, dst, nbytes) -> bool`` decides whether a
        #: fully drained transfer arrives corrupt (checksum mismatch) and
        #: must be surfaced as :class:`TransferAborted`
        self.corruption_check = None
        self.corrupted_count = 0
        obs = session.observability
        self._obs_metrics = obs.metrics if obs is not None else None

    # -- links -------------------------------------------------------------------
    def link(self, src: str, dst: str) -> SharedLink:
        """The (lazily created) shared link serving the src<->dst route."""
        key = Fabric._key(src, dst)
        shared = self._links.get(key)
        if shared is None:
            route = self.session.fabric.route(src, dst)
            shared = SharedLink(self.session.engine, route.bandwidth_gbps,
                                name=f"{key[0]}<->{key[1]}")
            self._links[key] = shared
        return shared

    def links(self) -> Dict[Tuple[str, str], SharedLink]:
        return dict(self._links)

    def estimate(self, src: str, dst: str, nbytes: float) -> float:
        """Contention-aware ETA (mean latency + fair-shared serialisation).

        Deterministic -- consumes no RNG samples -- so placement decisions
        based on it never perturb the transfer-time streams.
        """
        route = self.session.fabric.route(src, dst)
        return route.latency.mean_s + self.link(src, dst).eta(nbytes)

    # -- execution ---------------------------------------------------------------
    def transfer(self, move: Transfer) -> None:
        """Start *move*: a one-way latency sampled from the route (a timer),
        then the payload drains through the shared link at the fair-share
        rate (a hook on the flow).  Returns nothing: *move* lands on its
        ``then`` -- here already, if it has nothing to wait for."""
        if move.nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        engine = self.session.engine
        move.started = engine.now
        latency = self.session.fabric.latency(move.src, move.dst)
        if latency > 0:
            move.wait = engine.call_later(latency, self._flow, move)
        else:
            self._flow(move)

    def _flow(self, move: Transfer) -> None:
        if move.nbytes > 0:
            move.link = self.link(move.src, move.dst)
            move.wait = Hook(move.link.transfer(move.nbytes), self._arrived,
                             move)
        else:
            self._arrived(move, None)

    def _arrived(self, move: Transfer, error: Optional[BaseException]) -> None:
        # a link flap fails the flow itself: *error* is the injector's
        # TransferAborted, and goes to the caller as it is
        move.wait = None
        src, dst, nbytes = move.src, move.dst, move.nbytes
        if error is None and nbytes > 0 and self.corruption_check is not None \
                and self.corruption_check(src, dst, nbytes):
            self.corrupted_count += 1
            error = TransferAborted(
                f"transfer {src}->{dst} arrived corrupt "
                f"({nbytes:.3g} bytes, checksum mismatch)")
        if error is None:
            self.bytes_moved += nbytes
            self.records.add(src, dst, nbytes, move.started,
                             self.session.engine.now, move.uid)
            if self._obs_metrics is not None and nbytes > 0:
                key = Fabric._key(src, dst)
                self._obs_metrics.counter(
                    "transfer_link_bytes_total",
                    {"link": f"{key[0]}<->{key[1]}"}).inc(nbytes)
        move.then(move.arg, error)
