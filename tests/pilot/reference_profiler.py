"""The eager profiler, kept as the test reference.

Until PR 21 this was ``repro.pilot.profiler.Profiler``: ``record`` builds a
:class:`ProfileRow` on the spot (full tier) or stamps the first timestamp
of the pair (durations tier).  The shipped profiler appends scalars to a
flat log and derives the same rows, stamps and counters when a reader
arrives; ``tests/test_properties.py`` holds it to this one, answer for
answer and byte for byte.  The reference shares ``ProfileRow`` with the
shipped module, nothing else.
"""

import json
from collections import deque
from itertools import islice
from typing import Deque, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.pilot.profiler import ProfileRow


class ReferenceProfiler:
    """Tiered event store with duration extraction."""

    LEVELS = ("full", "durations", "off")

    def __init__(self, level: str = "full") -> None:
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}")
        self.level = level
        self._rows: List[ProfileRow] = []
        #: rows[:_indexed] are reflected in the indices (full tier)
        self._indexed = 0
        #: ``(uid, event) -> first timestamp``; ``event -> {uid: None}`` in
        #: first-occurrence order; and the per-uid row index
        self._indices: Tuple[Dict[Tuple[str, str], float],
                             Dict[str, Dict[str, None]],
                             Dict[str, Deque[ProfileRow]]] = ({}, {}, {})
        #: record() calls total, regardless of tier
        self.recorded = 0

    # -- derived indices ---------------------------------------------------------
    def _derived(self):
        """The indices, first caught up with rows past the watermark."""
        if self._indexed < len(self._rows):
            first, event_uids, by_uid = self._indices
            rows = self._rows
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

    def record(self, time: float, uid: str, event: str,
               component: str = "") -> None:
        """Record one profile row (what is kept depends on the tier)."""
        self.recorded += 1
        if self.level == "full":
            self._rows.append(ProfileRow(float(time), uid, event, component))
        elif self.level == "durations":
            first, event_uids, _ = self._indices
            key = (uid, event)
            if key not in first:
                first[key] = float(time)
                event_uids.setdefault(event, {})[uid] = None

    @property
    def dropped(self) -> int:
        """Records that left neither a row nor a stamp behind."""
        return 0 if self.level == "durations" \
            else self.recorded - len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    # -- queries -------------------------------------------------------------
    def events(self, uid: Optional[str] = None,
               event: Optional[str] = None) -> List[ProfileRow]:
        """Rows filtered by uid and/or event name (full tier only)."""
        if uid is not None:
            rows: Iterable[ProfileRow] = self._derived()[2].get(uid, ())
        else:
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
        self._rows.clear()
        self._indexed = 0
        for index in self._indices:
            index.clear()
        self.recorded = 0

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Persist the profile as JSONL; returns the line count."""
        lines = 1
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": {"level": self.level,
                                          "recorded": self.recorded}}) + "\n")
            for (uid, event), t in self._first.items():
                fh.write(json.dumps(["f", t, uid, event]) + "\n")
                lines += 1
            for row in self._rows:
                fh.write(json.dumps(["r", row.time, row.uid, row.event,
                                     row.component]) + "\n")
                lines += 1
        return lines

    @classmethod
    def from_jsonl(cls, path: str) -> "ReferenceProfiler":
        """Reload a profile written by :meth:`to_jsonl`."""
        profiler: Optional[ReferenceProfiler] = None
        meta: Dict[str, object] = {}
        with open(path) as fh:
            for line in fh:
                entry = json.loads(line)
                if isinstance(entry, dict):
                    meta = entry["meta"]
                    if profiler is None:
                        profiler = cls(level=meta["level"])
                elif profiler is None:
                    break
                elif entry[0] == "f":
                    _, t, uid, event = entry
                    first, event_uids, _ = profiler._derived()
                    if (uid, event) not in first:
                        first[uid, event] = float(t)
                        event_uids.setdefault(event, {})[uid] = None
                else:
                    _, t, uid, event, component = entry
                    profiler.record(t, uid, event, component)
        if profiler is None:
            raise ValueError(f"no meta line in profile file: {path}")
        profiler.recorded = meta["recorded"]
        return profiler
