"""Timestamped profile events, RADICAL-style: one log of columns, read late.

Every runtime component records ``(time, entity_uid, event, component)``;
the analytics layer (:mod:`repro.analytics.metrics`) derives the paper's
metrics from the stamps:

* **BT** (bootstrap time)  = launch + init + publish durations per service;
* **RT** (response time)   = communication + service + inference per request;
* **IT** (inference time)  = the inference component alone.

**Record appends.**  The profile is an append-only log of three columns:
the times in one ``array('d')``, the uids in one list, and per record a
small integer code (an ``array('H')``, widened to ``'L'`` past 65,536
codes) that names its (event, component) pair in an interned table --
components are manager and pilot uids, so a run has a handful of pairs.  A
record costs 18 bytes and no object of its own (32 bytes of list slots and
a boxed time while the log was one flat list).  :meth:`Profiler.record` is
a counter bump, one code lookup and three appends in every retaining
level: it builds no row, touches no index and allocates nothing the cyclic
collector tracks, so a run that never reads its profile pays for neither
rows nor collector passes over them.

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
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import islice
from operator import eq
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Tuple, Union)

import numpy as np

__all__ = ["Profiler", "ProfileEvent", "ProfileRow", "ProfileView"]

ProfileEvent = Tuple[float, str, str, str]  # (time, uid, event, component)

#: codes that fit the narrow code column
_NARROW_CODES = 1 << 16


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


class _CodeTable(dict):
    """``(event, component) -> code``; a pair not seen before takes the next
    code, and ``pairs[code]`` gives the pair back."""

    __slots__ = ("pairs",)

    def __init__(self) -> None:
        super().__init__()
        self.pairs: List[Tuple[str, str]] = []

    def __missing__(self, pair: Tuple[str, str]) -> int:
        code = self[pair] = len(self.pairs)
        self.pairs.append(pair)
        return code


class ProfileView(Sequence):
    """Read-only rows of a profile, each built when read: ``len``, indexing
    (negative too; a slice is a view), iteration, ``==`` with a list or a
    view, ``repr``.  A snapshot: the full level only appends to its columns
    and replaces them when it forgets, so later records and a later
    ``clear()`` do not change a view."""

    __slots__ = ("_times", "_uids", "_codes", "_pairs", "_at")

    def __init__(self, times: array, uids: List[str], codes: array,
                 pairs: List[Tuple[str, str]],
                 at: Union[range, List[int]]) -> None:
        self._times, self._uids, self._codes = times, uids, codes
        self._pairs = pairs  # code -> (event, component)
        self._at = at        # the record numbers shown

    def __len__(self) -> int:
        return len(self._at)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return ProfileView(self._times, self._uids, self._codes,
                               self._pairs, self._at[i])
        return self._row(self._at[i])

    def __iter__(self) -> Iterator[ProfileRow]:
        return map(self._row, self._at)

    def _row(self, k: int) -> ProfileRow:
        return ProfileRow(self._times[k], self._uids[k],
                          *self._pairs[self._codes[k]])

    def __eq__(self, other) -> bool:
        if not isinstance(other, (list, ProfileView)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return repr(list(self))


class Profiler:
    """Columnar record log with one choice of what a reader derives from it."""

    LEVELS = ("full", "durations", "off")

    def __init__(self, level: str = "full") -> None:
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}")
        self.level = level
        #: the second reader: ``reader(times, uids, codes, pairs, start)``
        #: is called with the columns (oldest first, the last record
        #: numbered ``recorded - 1``), the code table and the record its
        #: unseen part starts at, before that part is folded
        self.reader: Optional[Callable[..., None]] = None
        self.clear()

    def record(self, time: float, uid: str, event: str,
               component: str = "") -> None:
        """Record one profile event: a counter bump, a code lookup and one
        append per column."""
        self.recorded += 1
        if self.level == "off" and self.reader is None:
            return
        code = self._code_of[event, component]
        self._times.append(time)
        self._uids.append(uid)
        try:
            self._codes.append(code)
        except OverflowError:  # code 65,536: the code column widens
            self._codes = array("L", self._codes)
            self._codes.append(code)

    def _empty_columns(self) -> None:
        """Start the columns afresh (the code table stays)."""
        self._times = array("d")
        self._uids: List[str] = []
        self._codes = array("H" if len(self._pairs) <= _NARROW_CODES
                            else "L")
        self._shared = 0      # records [0, _shared) were handed to the reader

    # -- a reader arrives ----------------------------------------------------------
    def share(self) -> None:
        """Hand the reader what it has not seen, without consuming it: the
        profile's own readers still find it (``"off"``, which keeps
        nothing, drops it once read)."""
        times = self._times
        if self._shared < len(times):
            with _collector_paused():
                self.reader(times, self._uids, self._codes, self._pairs,
                            self._shared)
            self._shared = len(times)
        if self.level == "off" and times:
            self._empty_columns()

    @property
    def _first(self) -> Dict[str, Dict[str, float]]:
        """The first-stamp index, caught up with the log (which the
        durations level folds into it and drops)."""
        times, start = self._times, self._stamped
        if start < len(times) and self.level != "off":
            if self.level == "full":
                self._stamped = len(times)
            elif self.reader is not None:
                self.share()  # the reader's turn before the log is folded
            events = [event for event, _ in self._pairs]
            self._stamp(islice(times, start, None),
                        islice(self._uids, start, None),
                        map(events.__getitem__, self._codes[start:]))
            if self.level == "durations":
                self._empty_columns()
        return self._stamps

    def _stamp(self, times: Iterable, uids: Iterable[str],
               events: Iterable[str]) -> None:
        """Take the first stamp of every (uid, event) pair not stamped yet."""
        first, order = self._stamps, self._stamp_order
        t0 = None  # records of one instant share one float
        for t, uid, event in zip(times, uids, events):
            stamps = first.get(event)
            if stamps is None:
                stamps = first[event] = {}
            if uid not in stamps:
                if t != t0:
                    t0 = float(t)
                stamps[uid] = t0
                order.append(event)

    # -- counters ------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Records that left neither a row nor a stamp behind: every one in
        the ``"off"`` level (and, in a profile reloaded from a file written
        under the former row bound, what that bound let go)."""
        return 0 if self.level == "durations" else self.recorded - len(self)

    def __len__(self) -> int:
        return len(self._times) if self.level == "full" else 0

    # -- queries -------------------------------------------------------------
    def events(self, uid: Optional[str] = None,
               event: Optional[str] = None) -> ProfileView:
        """Rows filtered by uid and/or event name (full level only), as a
        snapshot view that builds each row when read.

        uid-filtered lookups go through the per-uid index, so they cost
        O(rows of that uid) instead of O(rows).
        """
        n = len(self)
        at = (range(n) if uid is None or not n
              else self._uid_index().get(uid, []).copy())
        pairs, codes = self._pairs, self._codes
        if event is not None:
            match = [e == event for e, _ in pairs]
            at = [k for k in at if match[codes[k]]]
        return ProfileView(self._times, self._uids, codes, pairs, at)

    def _uid_index(self) -> Dict[str, List[int]]:
        """``uid -> record numbers``, caught up with the log."""
        uids, by_uid = self._uids, self._by_uid
        if self._placed < len(uids):
            start, self._placed = self._placed, len(uids)
            for k, uid in enumerate(islice(uids, start, None), start):
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
        #: code -> (event, component), and back
        self._code_of = _CodeTable()
        self._pairs = self._code_of.pairs
        self._empty_columns()  # time, uid and code per record
        #: ``event -> {uid: first timestamp}``, each in first-occurrence
        #: order (all the "durations" level keeps), and the event of each
        #: stamp in the order they were taken
        self._stamps: Dict[str, Dict[str, float]] = {}
        self._stamp_order: List[str] = []
        self._stamped = 0     # records [0, _stamped) are stamped (full)
        self._by_uid: Dict[str, List[int]] = {}  # uid -> record numbers
        self._placed = 0      # ... of the records [0, _placed)
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
