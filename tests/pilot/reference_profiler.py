"""The eager profiler, kept as the test reference.

Until PR 21 this was ``repro.pilot.profiler.Profiler``: ``record`` built a
:class:`ProfileRow` on the spot and, in every configuration that drops
rows, stamped the indices and applied the retention bound per record.  The
shipped profiler appends scalars to a flat log and derives the same rows,
indices and counters when a reader arrives; ``tests/test_properties.py``
holds it to this one, answer for answer and byte for byte.  The reference
shares ``ProfileRow`` with the shipped module, nothing else.

Two outcomes the parent left undefined are defined here as they are in
the shipped class: a zero-row ring retains nothing and counts every record
as dropped (the parent raised ``IndexError``), and ``clear()`` on an open
spill restarts the file (the parent left ``spilled`` and the file behind).
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
    RETENTIONS = ("bound", "ring", "spill")

    #: buffered rows per spill flush when max_rows does not say otherwise
    SPILL_CHUNK = 8192

    def __init__(self, level: str = "full",
                 max_rows: Optional[int] = None,
                 retention: str = "bound",
                 spill_path: Optional[str] = None) -> None:
        if level not in self.LEVELS:
            raise ValueError(f"level must be one of {self.LEVELS}")
        if max_rows is not None and max_rows < 0:
            raise ValueError("max_rows must be non-negative")
        if retention not in self.RETENTIONS:
            raise ValueError(f"retention must be one of {self.RETENTIONS}")
        if retention == "spill" and spill_path is None:
            raise ValueError("retention='spill' requires spill_path")
        self.level = level
        self.max_rows = max_rows
        self.retention = retention
        self.spill_path = spill_path
        # a zero-row ring is a zero-row bound: nothing to evict
        self._ring = retention == "ring" and bool(max_rows)
        self._spill = retention == "spill" and level == "full"
        #: rows written to the spill file so far
        self.spilled = 0
        self._spill_chunk = max_rows or self.SPILL_CHUNK
        self._spill_fh = None
        self._rows: List[ProfileRow] = (
            deque(maxlen=max_rows) if self._ring else [])
        #: every row is retained, so the indices can be derived from the
        #: rows on demand instead of maintained per record
        self._lazy = level == "full" and max_rows is None and not self._spill
        #: rows[:_indexed] are reflected in the indices (lazy mode only)
        self._indexed = 0
        #: the three indices, read through the properties below:
        #: ``(uid, event) -> first timestamp`` (the "durations" tier's
        #: store and the O(1) lookup path of the full tier); ``event ->
        #: {uid: None}`` in first-occurrence order; and the per-uid row
        #: index (ring eviction prunes the evicted row from its uid's
        #: deque, so uid-filtered queries are O(rows of that uid))
        self._indices: Tuple[Dict[Tuple[str, str], float],
                             Dict[str, Dict[str, None]],
                             Dict[str, Deque[ProfileRow]]] = ({}, {}, {})
        #: record() calls total, regardless of tier/bound
        self.recorded = 0
        #: rows not retained (off tier, or full tier past max_rows)
        self.dropped = 0
        if self._spill:
            # provisional header: overridden by close_spill's trailing meta
            self._spill_fh = open(spill_path, "w")
            self._spill_fh.write(json.dumps({"meta": self._meta()}) + "\n")

    def _meta(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "max_rows": self.max_rows,
            "retention": self.retention,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "spilled": self.spilled,
        }

    # -- derived indices ---------------------------------------------------------
    def _derived(self):
        """The indices, first caught up with rows past the watermark."""
        if self._lazy and self._indexed < len(self._rows):
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

    @property
    def _event_uids(self) -> Dict[str, Dict[str, None]]:
        return self._derived()[1]

    @property
    def _by_uid(self) -> Dict[str, Deque[ProfileRow]]:
        return self._derived()[2]

    def record(self, time: float, uid: str, event: str,
               component: str = "") -> None:
        """Record one profile row (retention depends on the tier)."""
        self.recorded += 1
        if self._lazy:
            self._rows.append(ProfileRow(float(time), uid, event, component))
            return
        if self.level == "off":
            self.dropped += 1
            return
        first, event_uids, by_uid = self._indices
        key = (uid, event)
        if key not in first:
            first[key] = float(time)
            event_uids.setdefault(event, {})[uid] = None
        if self.level == "durations":
            return
        row = ProfileRow(float(time), uid, event, component)
        if self._spill:
            self._rows.append(row)
            bucket = by_uid.get(uid)
            if bucket is None:
                bucket = by_uid[uid] = deque()
            bucket.append(row)
            # flush a full chunk to disk; recording after close_spill()
            # keeps buffering in memory (safe teardown ordering)
            if (len(self._rows) >= self._spill_chunk
                    and self._spill_fh is not None):
                self._flush_spill()
            return
        if self._ring:
            if len(self._rows) == self.max_rows:
                # the ring evicts its oldest row: prune it from the index
                self.dropped += 1
                evicted = self._rows[0]
                bucket = by_uid.get(evicted.uid)
                if bucket is not None:
                    bucket.popleft()
                    if not bucket:
                        del by_uid[evicted.uid]
        elif self.max_rows is not None and len(self._rows) >= self.max_rows:
            self.dropped += 1
            return
        self._rows.append(row)
        bucket = by_uid.get(uid)
        if bucket is None:
            bucket = by_uid[uid] = deque()
        bucket.append(row)

    def __len__(self) -> int:
        return len(self._rows)

    # -- queries -------------------------------------------------------------
    def events(self, uid: Optional[str] = None,
               event: Optional[str] = None) -> List[ProfileRow]:
        """Rows filtered by uid and/or event name (full tier only).

        uid-filtered lookups go through the per-uid index in both
        retention modes (ring eviction prunes the index exactly), so they
        cost O(rows of that uid) instead of O(total retained rows).
        """
        if uid is not None:
            rows: Iterable[ProfileRow] = self._by_uid.get(uid, ())
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
        return list(self._event_uids.get(event, ()))

    def clear(self) -> None:
        self._rows.clear()
        self._indexed = 0
        for index in self._indices:
            index.clear()
        self.recorded = 0
        self.dropped = 0
        if self._spill_fh is not None:
            self.spilled = 0
            self._spill_fh.seek(0)
            self._spill_fh.truncate()
            self._spill_fh.write(json.dumps({"meta": self._meta()}) + "\n")

    # -- spill ---------------------------------------------------------------
    def _flush_spill(self) -> None:
        """Stream the buffered chunk to the spill file and drop it."""
        fh = self._spill_fh
        write = fh.write
        for row in self._rows:
            write(json.dumps(["r", row.time, row.uid, row.event,
                              row.component]) + "\n")
        self.spilled += len(self._rows)
        self._rows.clear()
        self._by_uid.clear()

    def close_spill(self) -> Optional[str]:
        """Finalise the spill file; returns its path (None if not spilling).

        Flushes the buffered tail, appends the ``"f"`` first-timestamp
        lines and a trailing meta line (which overrides the provisional
        header on reload), and closes the file.  Idempotent: a second
        call -- or a call on a non-spill profiler -- is a no-op returning
        the path (or None).  Rows recorded *after* close buffer in memory
        like plain ``"bound"`` retention, so teardown-ordering races
        cannot write to a closed file.
        """
        if not self._spill:
            return None
        if self._spill_fh is not None:
            self._flush_spill()
            fh = self._spill_fh
            for (uid, event), t in self._first.items():
                fh.write(json.dumps(["f", t, uid, event]) + "\n")
            fh.write(json.dumps({"meta": self._meta()}) + "\n")
            fh.close()
            self._spill_fh = None
        return self.spill_path

    # -- persistence ---------------------------------------------------------
    def to_jsonl(self, path: str) -> int:
        """Persist the profile as JSONL; returns the line count.

        Format: a ``meta`` header line, one ``["f", t, uid, event]`` line
        per first timestamp (written in first-occurrence order, so the
        ``durations`` tier and stamps whose rows the retention bound
        dropped survive), then one ``["r", t, uid, event, component]``
        line per retained row.  The file round-trips through
        :meth:`from_jsonl` for every tier/retention combination and feeds
        the offline trace exporter
        (:func:`repro.observability.spans_from_profiler`).
        """
        if self._spill:
            raise ValueError(
                "spill-retention profilers already stream to spill_path; "
                "finalise with close_spill() instead of to_jsonl()")
        lines = 1
        with open(path, "w") as fh:
            fh.write(json.dumps({"meta": self._meta()}) + "\n")
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
        """Reload a profile written by :meth:`to_jsonl` or a spill file.

        First timestamps are restored verbatim (including ones whose rows
        were dropped), rows are replayed into the original tier/retention
        configuration, and the recorded/dropped counters come back from
        the meta line rather than the replay.  Meta lines may appear
        anywhere (spill files carry a provisional header *and* a trailing
        final meta; the last one seen wins); a spill-retention profile
        reloads as an unbounded in-memory ``"bound"`` profiler so every
        spilled row is queryable via :meth:`events`.
        """
        profiler: Optional[ReferenceProfiler] = None
        meta: Dict[str, object] = {}
        with open(path) as fh:
            for line in fh:
                entry = json.loads(line)
                if isinstance(entry, dict):
                    meta = entry["meta"]
                    if profiler is None:
                        if meta["retention"] == "spill":
                            profiler = cls(level=meta["level"], max_rows=None,
                                           retention="bound")
                        else:
                            profiler = cls(level=meta["level"],
                                           max_rows=meta["max_rows"],
                                           retention=meta["retention"])
                elif entry[0] == "f":
                    _, t, uid, event = entry
                    key = (uid, event)
                    if key not in profiler._first:
                        profiler._first[key] = float(t)
                        profiler._event_uids.setdefault(event, {})[uid] = None
                else:
                    _, t, uid, event, component = entry
                    profiler.record(t, uid, event, component)
        if profiler is None:
            raise ValueError(f"no meta line in profile file: {path}")
        profiler.recorded = meta["recorded"]
        profiler.dropped = meta["dropped"]
        return profiler
