"""Timestamped profile events, RADICAL-style: one flat log, read on demand.

Every runtime component records ``(time, entity_uid, event, component)``;
the analytics layer (:mod:`repro.analytics.metrics`) derives the paper's
metrics from the stamps:

* **BT** (bootstrap time)  = launch + init + publish durations per service;
* **RT** (response time)   = communication + service + inference per request;
* **IT** (inference time)  = the inference component alone.

**Record appends.**  The profile is one flat append-only list of scalars,
four per record.  :meth:`Profiler.record` is a counter bump and one list
extension in every retaining level: it builds no row, touches no index,
tests no length and allocates nothing the cyclic collector tracks, so a run
that never reads its profile pays for neither rows nor collector passes
over them.

**Reading costs what the run recorded.**  The log is the only row store:
:meth:`events` returns a :class:`ProfileView`, a snapshot of the log that
builds each :class:`ProfileRow` when it is read and keeps none.  The first
stamps, ``event -> {uid: first time}`` in first-occurrence order, derive
from the log past a watermark without a row, on the first stamp query
(:meth:`timestamp`, :meth:`duration`, :meth:`durations`,
:meth:`uids_with_event`, :meth:`to_jsonl`); only a uid-filtered
:meth:`events` derives the other index, ``uid -> record numbers``.

**The log has a second reader.**  A transition is appended once, here; the
tracer (:mod:`repro.observability.trace`) does not keep a copy but reads
the task phases off this log.  The :attr:`reader` is handed every record
once, in every level, by :meth:`share`: the tracer calls it on each span
query, and the profile calls it before it folds or forgets records.  While
a reader is attached ``"off"`` keeps appending -- and drops each stretch
once the reader has seen it: rows, first stamps, ``len`` and
:attr:`dropped` mean what they mean without one.

**One choice**, ``level=`` (``Session(profile=...)`` for a whole run), says
what the log becomes when a reader arrives:

* ``"full"``       -- the log is kept and every record is a row; the
  default, needed by row-level queries like :meth:`events`;
* ``"durations"``  -- the log is folded into the first stamps and dropped,
  and no row is ever built: exactly what :meth:`timestamp` /
  :meth:`duration` / :meth:`durations` and the analytics layer consume, so
  what is kept after a read is bounded by the distinct (uid, event) pairs;
* ``"off"``        -- recording is a counter bump (and, while a reader is
  attached, the append it reads); all queries come back empty.  For
  pure-throughput campaigns.

**One on-disk form.**  :meth:`to_jsonl` after the run writes it;
:meth:`from_jsonl` reads it back.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import islice
from operator import eq
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple, Union)

import numpy as np

__all__ = ["Profiler", "ProfileEvent", "ProfileRow", "ProfileView"]

ProfileEvent = Tuple[float, str, str, str]  # (time, uid, event, component)


@contextmanager
def _collector_paused():
    """The reader's spans are acyclic: a collector pass over them frees
    nothing, so none runs while they are built."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


class ProfileRow(NamedTuple):
    """One profile row: a named tuple, so rows stay tuple-compatible
    (``row[0]``, unpacking, ``== (t, uid, ev, comp)``) while carrying no
    per-instance ``__dict__``."""

    time: float
    uid: str
    event: str
    component: str


class ProfileView(Sequence):
    """Read-only rows of a profile, each built when read (``time`` as a
    float): ``len``, indexing (negative too; a slice is a view), iteration,
    ``==`` with a list or a view, ``repr``.  A snapshot: the full level only
    appends to its log and replaces it when it forgets, so later records
    and a later ``clear()`` do not change a view."""

    __slots__ = ("_log", "_at")

    def __init__(self, log: list, at: Union[range, List[int]]) -> None:
        self._log, self._at = log, at  # the log, the record numbers shown

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProfileView(self._log, self._at[i])
        return self._row(self._at[i])

    def __iter__(self) -> Iterator[ProfileRow]:
        return map(self._row, self._at)

    def _row(self, k: int) -> ProfileRow:
        log, k = self._log, 4 * k
        return ProfileRow(float(log[k]), log[k + 1], log[k + 2], log[k + 3])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ProfileView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class Profiler:
    """Flat record log with one choice of what a reader derives from it."""

    LEVELS = ("full", "durations", "off")

    def __init__(self, level: str = "full") -> None:
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}")
        self.level = level
        #: the second reader: ``reader(log, start)`` is called with the log
        #: (flat, oldest first, its last record numbered ``recorded - 1``)
        #: and the field its unseen part starts at, before it is folded
        self.reader: Optional[Callable[[list, int], None]] = None
        self.clear()

    def record(self, time: float, uid: str, event: str,
               component: str = "") -> None:
        """Record one profile event: a counter bump and one flat append."""
        self.recorded += 1
        if self.level == "off" and self.reader is None:
            return
        self._log += (time, uid, event, component)

    # -- a reader arrives ----------------------------------------------------------
    def share(self) -> None:
        """Hand the reader what it has not seen, without consuming it: the
        profile's own readers still find it (``"off"``, which keeps
        nothing, drops it once read)."""
        log = self._log
        if self._shared < len(log):
            with _collector_paused():
                self.reader(log, self._shared)
            self._shared = len(log)
        if self.level == "off" and log:
            self._log, self._shared = [], 0

    @property
    def _first(self) -> Dict[str, Dict[str, float]]:
        """The first-stamp index, caught up with the log (which the
        durations level folds into it and drops)."""
        log, start = self._log, self._stamped
        if start < len(log) and self.level != "off":
            if self.level == "full":
                self._stamped = len(log)
            elif self.reader is not None:
                self.share()  # the reader's turn before the log is folded
            self._stamp(islice(log, start, None, 4),
                        islice(log, start + 1, None, 4),
                        islice(log, start + 2, None, 4))
            if self.level == "durations":
                self._log, self._shared = [], 0
        return self._stamps

    def _stamp(self, times: Iterable, uids: Iterable[str],
               events: Iterable[str]) -> None:
        """Take the first stamp of every (uid, event) pair not stamped yet."""
        first, order = self._stamps, self._stamp_order
        for t, uid, event in zip(times, uids, events):
            stamps = first.get(event)
            if stamps is None:
                stamps = first[event] = {}
            if uid not in stamps:
                stamps[uid] = float(t)
                order.append(event)

    # -- counters ------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Records that left neither a row nor a stamp behind: every one in
        the ``"off"`` level (and, in a profile reloaded from a file written
        under the former row bound, what that bound let go)."""
        return 0 if self.level == "durations" else self.recorded - len(self)

    def __len__(self) -> int:
        return len(self._log) // 4 if self.level == "full" else 0

    # -- queries -------------------------------------------------------------
    def events(self, uid: Optional[str] = None,
               event: Optional[str] = None) -> ProfileView:
        """Rows filtered by uid and/or event name (full level only), as a
        snapshot view that builds each row when read.

        uid-filtered lookups go through the per-uid index, so they cost
        O(rows of that uid) instead of O(rows).
        """
        log = self._log if self.level == "full" else []
        at = (range(len(log) // 4) if uid is None or not log
              else self._uid_index().get(uid, []).copy())
        if event is not None:
            at = [k for k in at if log[4 * k + 2] == event]
        return ProfileView(log, at)

    def _uid_index(self) -> Dict[str, List[int]]:
        """``uid -> record numbers``, caught up with the log."""
        log, by_uid = self._log, self._by_uid
        if self._placed < len(log):
            start, self._placed = self._placed, len(log)
            for k, uid in enumerate(islice(log, start + 1, None, 4),
                                    start // 4):
                by_uid.setdefault(uid, []).append(k)
        return by_uid

    def timestamp(self, uid: str, event: str) -> Optional[float]:
        """First timestamp of *event* for *uid* (None if absent)."""
        return self._first.get(event, {}).get(uid)

    def duration(self, uid: str, start_event: str,
                 stop_event: str) -> Optional[float]:
        """Seconds between two events of one entity (None if either absent)."""
        t0 = self.timestamp(uid, start_event)
        t1 = self.timestamp(uid, stop_event)
        return None if t0 is None or t1 is None else t1 - t0

    def durations(self, uids: Iterable[str], start_event: str,
                  stop_event: str) -> np.ndarray:
        """Vector of durations across entities (skips incomplete ones)."""
        first = self._first
        starts = first.get(start_event, {})
        stops = first.get(stop_event, {})
        return np.asarray([stops[uid] - starts[uid] for uid in uids
                           if uid in starts and uid in stops], dtype=float)

    def uids_with_event(self, event: str) -> List[str]:
        """All entity uids that recorded *event* (first-occurrence order)."""
        return list(self._first.get(event, ()))

    def clear(self) -> None:
        """Forget everything (the reader reads it first).  Each store is
        replaced, not emptied: a view handed out keeps its snapshot."""
        if self.reader is not None:
            self.share()
        self._log: list = []  # time, uid, event, component per record
        self._shared = 0      # log[:_shared] was handed to the reader
        #: ``event -> {uid: first timestamp}``, each in first-occurrence
        #: order (all the "durations" level keeps), and the event of each
        #: stamp in the order they were taken
        self._stamps: Dict[str, Dict[str, float]] = {}
        self._stamp_order: List[str] = []
        self._stamped = 0     # log[:_stamped] is stamped (full level)
        self._by_uid: Dict[str, List[int]] = {}  # uid -> record numbers
        self._placed = 0      # ... of the records in log[:_placed]
        #: record() calls total, regardless of level
        self.recorded = 0

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Persist the profile as JSONL; returns the line count.

        Format: a ``meta`` header line, one ``["f", t, uid, event]`` line
        per first timestamp (written in first-occurrence order: all the
        ``durations`` level has), then one ``["r", t, uid, event,
        component]`` line per row.  The file round-trips through
        :meth:`from_jsonl` in every level.
        """
        stamps = {event: iter(uids.items())
                  for event, uids in self._first.items()}
        lines = 1
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": {"level": self.level,
                                          "recorded": self.recorded}}) + "\n")
            for event in self._stamp_order:
                uid, t = next(stamps[event])
                fh.write(json.dumps(["f", t, uid, event]) + "\n")
                lines += 1
            for row in self.events():
                fh.write(json.dumps(["r", *row]) + "\n")
                lines += 1
        return lines

    @classmethod
    def from_jsonl(cls, path: str) -> "Profiler":
        """Reload a profile written by :meth:`to_jsonl`.

        First timestamps are restored verbatim, rows are replayed, and
        ``recorded`` comes back from the meta line rather than the replay.
        The file must open with a meta line.  Files written before the row
        bound, the ring and the spill stream were removed still load: their
        ``max_rows`` / ``retention`` / ``spilled`` / ``dropped`` meta keys
        are ignored, every ``"r"`` row they hold is kept (a ring's window, a
        bound's head, all of a spill), ``"f"`` stamps whose rows were let go
        survive, and a spill file's trailing meta line overrides its
        provisional header.
        """
        with open(path) as fh:
            entries = map(json.loads, fh)
            head = next(entries, None)
            if not isinstance(head, dict) or "meta" not in head:
                raise ValueError(f"no meta line in profile file: {path}")
            meta = head["meta"]
            profiler = cls(level=meta["level"])
            for entry in entries:
                if isinstance(entry, dict):
                    meta = entry["meta"]
                elif entry[0] == "f":
                    _, t, uid, event = entry
                    profiler._stamp((t,), (uid,), (event,))
                else:
                    _, t, uid, event, component = entry
                    profiler.record(t, uid, event, component)
        profiler.recorded = meta["recorded"]
        return profiler
