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

**Readers derive.**  Every public read (:meth:`events`, :meth:`timestamp`,
:meth:`duration` / :meth:`durations`, :meth:`uids_with_event`, ``len``,
:attr:`dropped`, :meth:`to_jsonl`) first consumes the log, oldest record
first, off its reversed tail, so the flat form and what it becomes never
coexist in full.  Construction has *moved*, not vanished: the first reader
pays it, once, for the records since the last (collector paused: what is
built is acyclic, a pass over it frees nothing).

**The log has a second reader.**  A transition is appended once, here; the
tracer (:mod:`repro.observability.trace`) does not keep a copy but reads
the task phases off this log.  The :attr:`reader` is handed every record
once, in every level: by :meth:`share`, which leaves the log to the
profile's own readers, or -- for what it has not seen yet -- by
:meth:`catch_up` before the log is folded.  While a reader is attached
``"off"`` keeps appending -- and drops each stretch once the reader has
seen it: rows, first stamps, ``len`` and :attr:`dropped` mean what they
mean without one.

**One choice**, ``level=`` (``Session(profile=...)`` for a whole run), says
what the log becomes when a reader arrives:

* ``"full"``       -- every record becomes a :class:`ProfileRow`; the
  default, needed by row-level queries like :meth:`events`.  The
  first-timestamp, per-event and per-uid indices are derived from the rows
  past a watermark by the first query that needs them;
* ``"durations"``  -- the log is folded into the *first* timestamp per
  (uid, event) pair and no row is ever built: exactly what
  :meth:`timestamp` / :meth:`duration` / :meth:`durations` and the
  analytics layer consume, so what is kept after a read is bounded by the
  distinct pairs;
* ``"off"``        -- recording is a counter bump (and, while a reader is
  attached, the append it reads); all queries come back empty.  For
  pure-throughput campaigns.

**One on-disk form.**  :meth:`to_jsonl` after the run writes it;
:meth:`from_jsonl`, :func:`repro.observability.spans_from_profiler` and
:meth:`repro.observability.CampaignAttribution.from_profiler` read it back.
"""

from __future__ import annotations

import gc
import json
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import (Callable, Deque, Dict, Iterable, List, NamedTuple,
                    Optional, Tuple)

import numpy as np

__all__ = ["Profiler", "ProfileEvent", "ProfileRow"]

ProfileEvent = Tuple[float, str, str, str]  # (time, uid, event, component)

#: log fields consumed per slice by a reader (a multiple of four)
_STEP = 4 * 4096


@contextmanager
def _collector_paused():
    """Rows and the reader's spans are acyclic: a collector pass over them
    frees nothing, so none runs while they are built."""
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


class Profiler:
    """Flat record log with one choice of what a reader derives from it."""

    LEVELS = ("full", "durations", "off")

    def __init__(self, level: str = "full") -> None:
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}")
        self.level = level
        #: records not folded yet: ``time, uid, event, component`` each
        self._log: list = []
        #: the rows the log became (full level)
        self._rows: List[ProfileRow] = []
        #: rows[:_indexed] are reflected in the indices
        self._indexed = 0
        #: the three indices, read through the properties below:
        #: ``(uid, event) -> first timestamp`` (all the "durations" level
        #: keeps, and the O(1) lookup path of the full level); ``event ->
        #: {uid: None}`` in first-occurrence order; and the per-uid row
        #: index (uid-filtered queries are O(rows of that uid))
        self._indices: Tuple[Dict[Tuple[str, str], float],
                             Dict[str, Dict[str, None]],
                             Dict[str, Deque[ProfileRow]]] = ({}, {}, {})
        #: record() calls total, regardless of level
        self.recorded = 0
        #: the second reader: ``reader(log, start)`` is called with the log
        #: (flat, oldest first, its last record numbered ``recorded - 1``)
        #: and the field its unseen part starts at, before it is folded
        self.reader: Optional[Callable[[list, int], None]] = None
        #: log[:_shared] has been handed to the reader (see share)
        self._shared = 0

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
        if self.level == "off":
            self.catch_up()
        elif self._shared < len(self._log):
            with _collector_paused():
                self.reader(self._log, self._shared)
            self._shared = len(self._log)

    def catch_up(self) -> None:
        """Consume the log: the reader's turn for what it has not seen,
        then rows (full) or first stamps (durations)."""
        log = self._log
        if not log:
            return
        self._log = []  # a record landing meanwhile starts the next stretch
        shared, self._shared = self._shared, 0
        rows = self._rows
        first, event_uids, _ = self._indices
        with _collector_paused():
            if self.reader is not None:
                if shared < len(log):
                    self.reader(log, shared)
                if self.level == "off":
                    return
            log.reverse()  # read off the tail: the log shrinks as rows grow
            while log:
                part = log[-_STEP:]
                del log[-_STEP:]
                times, uids, events = part[-1::-4], part[-2::-4], part[-3::-4]
                if self.level == "full":
                    rows.extend(map(ProfileRow, map(float, times), uids,
                                    events, part[-4::-4]))
                else:
                    for t, uid, event in zip(times, uids, events):
                        key = (uid, event)
                        if key not in first:
                            first[key] = float(t)
                            event_uids.setdefault(event, {})[uid] = None

    def _derived(self):
        """The indices, caught up with the log and the rows it became."""
        self.catch_up()
        rows = self._rows
        if self._indexed < len(rows):
            first, event_uids, by_uid = self._indices
            for row in islice(rows, self._indexed, None):
                t, uid, event, _ = row
                key = (uid, event)
                if key not in first:
                    first[key] = t
                    event_uids.setdefault(event, {})[uid] = None
                bucket = by_uid.get(uid)
                if bucket is None:
                    bucket = by_uid[uid] = deque()
                bucket.append(row)
            self._indexed = len(rows)
        return self._indices

    @property
    def _first(self) -> Dict[Tuple[str, str], float]:
        return self._derived()[0]

    # -- counters ------------------------------------------------------------
    @property
    def dropped(self) -> int:
        """Records that left neither a row nor a stamp behind: every one in
        the ``"off"`` level (and, in a profile reloaded from a file written
        under the former row bound, what that bound let go)."""
        return 0 if self.level == "durations" else self.recorded - len(self)

    def __len__(self) -> int:
        self.catch_up()
        return len(self._rows)

    # -- queries -------------------------------------------------------------
    def events(self, uid: Optional[str] = None,
               event: Optional[str] = None) -> List[ProfileRow]:
        """Rows filtered by uid and/or event name (full level only).

        uid-filtered lookups go through the per-uid index, so they cost
        O(rows of that uid) instead of O(rows).
        """
        if uid is not None:
            rows: Iterable[ProfileRow] = self._derived()[2].get(uid, ())
        else:
            self.catch_up()
            rows = self._rows
        if event is not None:
            rows = [r for r in rows if r.event == event]
        return list(rows)

    def timestamp(self, uid: str, event: str) -> Optional[float]:
        """First timestamp of *event* for *uid* (None if absent)."""
        return self._first.get((uid, event))

    def duration(self, uid: str, start_event: str,
                 stop_event: str) -> Optional[float]:
        """Seconds between two events of one entity (None if either absent)."""
        t0 = self._first.get((uid, start_event))
        t1 = self._first.get((uid, stop_event))
        if t0 is None or t1 is None:
            return None
        return t1 - t0

    def durations(self, uids: Iterable[str], start_event: str,
                  stop_event: str) -> np.ndarray:
        """Vector of durations across entities (skips incomplete ones)."""
        first = self._first
        values = []
        for uid in uids:
            t0 = first.get((uid, start_event))
            t1 = first.get((uid, stop_event))
            if t0 is not None and t1 is not None:
                values.append(t1 - t0)
        return np.asarray(values, dtype=float)

    def uids_with_event(self, event: str) -> List[str]:
        """All entity uids that recorded *event* (first-occurrence order)."""
        return list(self._derived()[1].get(event, ()))

    def clear(self) -> None:
        """Forget everything (the reader reads it first)."""
        if self.reader is not None:
            self.catch_up()
        self._log.clear()
        self._rows.clear()
        self._indexed = 0
        for index in self._indices:
            index.clear()
        self.recorded = 0

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Persist the profile as JSONL; returns the line count.

        Format: a ``meta`` header line, one ``["f", t, uid, event]`` line
        per first timestamp (written in first-occurrence order: all the
        ``durations`` level has), then one ``["r", t, uid, event,
        component]`` line per row.  The file round-trips through
        :meth:`from_jsonl` in every level and feeds the offline trace
        exporter (:func:`repro.observability.spans_from_profiler`).
        """
        first = self._first
        lines = 1
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": {"level": self.level,
                                          "recorded": self.recorded}}) + "\n")
            for (uid, event), t in first.items():
                fh.write(json.dumps(["f", t, uid, event]) + "\n")
                lines += 1
            for row in self._rows:
                fh.write(json.dumps(["r", row.time, row.uid, row.event,
                                     row.component]) + "\n")
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
            first, event_uids, _ = profiler._indices
            for entry in entries:
                if isinstance(entry, dict):
                    meta = entry["meta"]
                elif entry[0] == "f":
                    _, t, uid, event = entry
                    if (uid, event) not in first:
                        first[uid, event] = float(t)
                        event_uids.setdefault(event, {})[uid] = None
                else:
                    _, t, uid, event, component = entry
                    profiler.record(t, uid, event, component)
        profiler.recorded = meta["recorded"]
        return profiler
