"""Tests for the profile-event store."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.pilot import Profiler
from repro.pilot.profiler import ProfileRow, ProfileView

#: written by the parent commit's ``Profiler(max_rows=4, retention="spill")``
#: and finalised by its ``close_spill()``: 3 task lifecycles, 24 records
PARENT_SPILL = Path(__file__).parent / "data" / "parent_spill.jsonl"


class TestProfiler:
    def test_record_and_count(self):
        p = Profiler()
        p.record(1.0, "task.0000", "exec_start", "agent")
        p.record(2.5, "task.0000", "exec_stop", "agent")
        assert len(p) == 2

    def test_timestamp_lookup(self):
        p = Profiler()
        p.record(3.0, "t", "a")
        assert p.timestamp("t", "a") == 3.0
        assert p.timestamp("t", "missing") is None
        assert p.timestamp("ghost", "a") is None

    def test_first_timestamp_wins(self):
        p = Profiler()
        p.record(1.0, "t", "a")
        p.record(9.0, "t", "a")
        assert p.timestamp("t", "a") == 1.0

    def test_duration(self):
        p = Profiler()
        p.record(1.0, "t", "start")
        p.record(4.0, "t", "stop")
        assert p.duration("t", "start", "stop") == 3.0
        assert p.duration("t", "start", "missing") is None

    def test_durations_vectorised(self):
        p = Profiler()
        for i, (t0, t1) in enumerate([(0, 1), (0, 2), (0, 4)]):
            p.record(t0, f"t{i}", "s")
            p.record(t1, f"t{i}", "e")
        p.record(0.0, "incomplete", "s")  # no stop event
        out = p.durations([f"t{i}" for i in range(3)] + ["incomplete"],
                          "s", "e")
        assert np.array_equal(out, [1.0, 2.0, 4.0])

    def test_events_filtering(self):
        p = Profiler()
        p.record(1.0, "a", "x")
        p.record(2.0, "b", "x")
        p.record(3.0, "a", "y")
        assert len(p.events(uid="a")) == 2
        assert len(p.events(event="x")) == 2
        assert len(p.events(uid="a", event="x")) == 1

    def test_uids_with_event_ordered(self):
        p = Profiler()
        p.record(1.0, "b", "launch")
        p.record(2.0, "a", "launch")
        p.record(3.0, "b", "launch")
        assert p.uids_with_event("launch") == ["b", "a"]

    def test_clear(self):
        p = Profiler()
        p.record(1.0, "t", "x")
        p.clear()
        assert len(p) == 0
        assert p.timestamp("t", "x") is None


class TestTiers:
    def test_durations_tier_answers_duration_queries(self):
        p = Profiler(level="durations")
        p.record(1.0, "t", "start")
        p.record(5.0, "t", "start")  # first timestamp still wins
        p.record(4.0, "t", "stop")
        assert p.timestamp("t", "start") == 1.0
        assert p.duration("t", "start", "stop") == 3.0
        assert p.uids_with_event("start") == ["t"]

    def test_durations_tier_keeps_no_rows(self):
        p = Profiler(level="durations")
        for i in range(1000):
            p.record(float(i), "t", "beat")
        assert len(p) == 0
        assert p.events() == []
        assert p.recorded == 1000
        # memory is bounded by distinct (uid, event) pairs, not records
        assert len(p._first) == 1

    def test_off_tier_records_nothing(self):
        p = Profiler(level="off")
        p.record(1.0, "t", "x")
        assert len(p) == 0
        assert p.timestamp("t", "x") is None
        assert p.durations(["t"], "x", "y").size == 0
        assert p.recorded == 1 and p.dropped == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="level"):
            Profiler(level="verbose")

    def test_rows_are_tuple_compatible(self):
        p = Profiler()
        p.record(1.0, "t", "x", "comp")
        (row,) = p.events()
        assert row == (1.0, "t", "x", "comp")
        assert row[2] == "x"
        t, uid, ev, comp = row
        assert (t, uid, ev, comp) == (1.0, "t", "x", "comp")

    def test_session_plumbs_profile_level(self):
        from repro.pilot import Session
        with Session(profile="off") as s:
            s.profiler.record(0.0, "t", "x")
            assert len(s.profiler) == 0
        with Session(profile="durations") as s:
            assert s.profiler.level == "durations"


class TestUidIndex:
    def test_uid_queries_match_linear_scan(self):
        p = Profiler()
        for i in range(100):
            p.record(float(i), f"t{i % 7}", f"e{i % 3}")
        for uid in {f"t{i}" for i in range(7)}:
            indexed = p.events(uid=uid)
            scanned = [r for r in p.events() if r.uid == uid]
            assert indexed == scanned
        # the index holds record numbers, never a row
        assert p._by_uid["t0"] == list(range(0, 100, 7))


class TestProfileView:
    """``events()`` is a read-only snapshot of the log that builds each row
    when it is read."""

    @staticmethod
    def _profile(n=5):
        p = Profiler()
        for i in range(n):
            p.record(i, f"t{i % 2}", f"e{i}", "c")  # int times read as float
        return p

    def test_negative_indices_and_slices(self):
        p = self._profile()
        rows = p.events()
        assert rows[-1] == (4.0, "t0", "e4", "c")
        assert type(rows[-1].time) is float
        assert rows[1:4:2] == [rows[1], rows[3]]
        assert isinstance(rows[1:], ProfileView) and len(rows[1:]) == 4
        assert rows[::-1][0] == rows[-1] and rows[5:] == []
        assert p.events(uid="t1")[-1].event == "e3"
        assert p.events(uid="t0")[1:] == [(2.0, "t0", "e2", "c"),
                                          (4.0, "t0", "e4", "c")]
        assert p.events(event="e2")[-1].uid == "t0"

    def test_out_of_range_raises_index_error(self):
        p = self._profile()
        for rows, i in ((p.events(), 5), (p.events(), -6),
                        (p.events(uid="t1"), 2), (Profiler().events(), 0),
                        (p.events(uid="ghost"), -1)):
            with pytest.raises(IndexError):
                rows[i]

    def test_equality_with_lists_and_views(self):
        p = self._profile(2)
        rows = p.events()
        expected = [(0.0, "t0", "e0", "c"), (1.0, "t1", "e1", "c")]
        assert rows == expected and expected == rows
        assert rows == p.events() and rows == p.events()[:]
        assert rows != expected[:1] and rows != [] and [] != rows
        assert rows != [list(r) for r in expected]
        assert rows != tuple(expected)              # as a list would
        assert list(rows) == expected and len(rows) == 2
        assert repr(rows) == repr([ProfileRow(*r) for r in expected])

    def test_a_view_is_a_snapshot(self):
        p = self._profile(3)
        rows, odd = p.events(), p.events(uid="t1")
        p.record(9.0, "t1", "late", "c")
        assert len(rows) == 3 and odd == [(1.0, "t1", "e1", "c")]
        assert len(p.events()) == 4 and len(p.events(uid="t1")) == 2
        p.clear()
        assert p.events() == [] and len(p) == 0
        assert len(rows) == 3 and rows[-1] == (2.0, "t0", "e2", "c")
        assert odd == [(1.0, "t1", "e1", "c")]
        p.record(5.0, "t1", "after", "c")
        assert [r.event for r in rows] == ["e0", "e1", "e2"]
        assert p.events() == [(5.0, "t1", "after", "c")]


class TestJsonlPersistence:
    def _populate(self, p):
        p.record(1.0, "t0", "start", "tmgr")
        p.record(2.0, "t0", "stop", "tmgr")
        p.record(3.0, "t1", "start", "agent")
        return p

    def test_round_trip_full_tier(self, tmp_path):
        p = self._populate(Profiler())
        path = tmp_path / "p.jsonl"
        assert p.to_jsonl(str(path)) == 1 + 3 + 3  # meta + firsts + rows
        q = Profiler.from_jsonl(str(path))
        assert q.level == p.level
        assert q.events() == p.events()
        assert q._first == p._first
        assert q.recorded == p.recorded and q.dropped == p.dropped
        assert q.uids_with_event("start") == ["t0", "t1"]

    def test_round_trip_durations_tier(self, tmp_path):
        p = self._populate(Profiler(level="durations"))
        path = tmp_path / "p.jsonl"
        p.to_jsonl(str(path))
        q = Profiler.from_jsonl(str(path))
        assert q.level == "durations" and len(q) == 0
        assert q.duration("t0", "start", "stop") == 1.0

    def test_uid_index_rebuilt_on_load(self, tmp_path):
        p = self._populate(Profiler())
        path = tmp_path / "p.jsonl"
        p.to_jsonl(str(path))
        q = Profiler.from_jsonl(str(path))
        assert [r.event for r in q.events(uid="t0")] == ["start", "stop"]

    @pytest.mark.parametrize("level", Profiler.LEVELS)
    def test_round_trip_every_level(self, level, tmp_path):
        p = Profiler(level=level)
        for i in range(8):
            p.record(float(i), f"t{i % 2}", f"e{i % 3}", "c")
        path = str(tmp_path / "p.jsonl")
        p.to_jsonl(path)
        q = Profiler.from_jsonl(path)
        assert (q.level, q.recorded, q.dropped) == \
            (level, 8, 8 if level == "off" else 0)
        assert q._first == p._first and q.events() == p.events()
        assert len(q) == (8 if level == "full" else 0)
        q.to_jsonl(path + ".again")
        assert Path(path).read_bytes() == Path(path + ".again").read_bytes()

    @pytest.mark.parametrize("pairs", [300, (1 << 16) + 5])
    def test_many_event_component_pairs_round_trip(self, pairs, tmp_path):
        # each distinct (event, component) pair takes a code: past 256 the
        # codes need more than a byte, past 65,536 the column widens
        p = Profiler()
        rows = [(float(i), f"t{i % 7}", f"e{i % 97}", f"c{i}")
                for i in range(pairs)]
        for row in rows:
            p.record(*row)
        p.record(9e9, "t0", "e0", "c0")  # an interned pair, after widening
        assert len(p) == pairs + 1 and len(p._pairs) == pairs
        assert p._codes.typecode == ("H" if pairs <= 1 << 16 else "L")
        assert p.events()[:pairs] == rows
        assert p.events()[-1] == (9e9, "t0", "e0", "c0")
        path = str(tmp_path / "p.jsonl")
        p.to_jsonl(path)
        q = Profiler.from_jsonl(path)
        assert q.events() == p.events() and q._first == p._first
        assert [r.component for r in q.events(event="e5")] == \
            [c for _, _, e, c in rows if e == "e5"]
        q.to_jsonl(path + ".again")
        assert Path(path).read_bytes() == Path(path + ".again").read_bytes()

    @pytest.mark.parametrize("lines", [
        [],                                             # empty file
        [["r", 1.0, "t", "a", "c"]],                    # a row, no header
        [["f", 1.0, "t", "a"]],                         # a stamp, no header
        [["r", 1.0, "t", "a", "c"], {"meta": {"level": "full",
                                              "recorded": 1}}],
    ], ids=["empty", "row-first", "stamp-first", "meta-last"])
    def test_file_without_a_meta_header_is_refused(self, lines, tmp_path):
        # was: AttributeError: 'NoneType' object has no attribute 'record'
        path = tmp_path / "p.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        with pytest.raises(ValueError, match="no meta line in profile file"):
            Profiler.from_jsonl(str(path))

    def test_meta_only_file_is_an_empty_profile(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(json.dumps({"meta": {"level": "full",
                                             "recorded": 0}}) + "\n")
        q = Profiler.from_jsonl(str(path))
        assert (q.level, q.recorded, len(q), q.events()) == ("full", 0, 0, [])
        assert q.timestamp("t", "a") is None


class TestParentSpillFile:
    """The spill stream is gone; the files it wrote are still input."""

    UIDS = ["task.0", "task.1", "task.2"]

    def test_every_row_and_first_stamp_is_queryable(self):
        header, *lines, final = [
            json.loads(ln) for ln in PARENT_SPILL.read_text().splitlines()]
        assert header["meta"]["recorded"] == 0        # provisional
        assert final["meta"] == {
            "level": "full", "max_rows": 4, "retention": "spill",
            "recorded": 24, "dropped": 0, "spilled": 24}
        q = Profiler.from_jsonl(str(PARENT_SPILL))
        assert (q.level, q.recorded, q.dropped, len(q)) == ("full", 24, 0, 24)
        assert [list(r) for r in q.events()] == \
            [ln[1:] for ln in lines if ln[0] == "r"]
        for ln in lines:
            if ln[0] == "f":
                assert q.timestamp(ln[2], ln[3]) == ln[1]
        # the uid index spans what were spill chunks; a repeat does not
        # move the first stamp
        assert [len(q.events(uid=uid)) for uid in self.UIDS] == [8, 8, 8]
        assert [r.time for r in q.events(uid="task.1", event="exec_start")] \
            == [13.0, 19.0]
        assert q.timestamp("task.1", "exec_start") == 13.0
        assert q.uids_with_event("exec_start") == self.UIDS


# -- derived indices ----------------------------------------------------------
class TestDerivedIndices:
    """Records append to the columns; rows and indices are derived when a
    reader arrives (``tests/test_properties.py`` holds every level to the
    eager reference profiler)."""

    def test_record_alone_builds_no_index(self):
        p = Profiler()
        for i in range(100):
            p.record(float(i), f"t{i % 3}", "ev")
        assert p._stamps == {} and p._stamped == 0 and p._by_uid == {}
        assert len(p.events()) == 100          # needs no index either
        assert p._stamped == 0 and p._by_uid == {}
        assert p.timestamp("t1", "ev") == 1.0  # first query derives
        assert p._stamped == 100 and p._by_uid == {}  # records, not fields
        p.record(200.0, "t9", "ev")            # ... and later ones catch up
        assert p.uids_with_event("ev") == ["t0", "t1", "t2", "t9"]
        p.clear()
        assert p._stamped == 0 and p.timestamp("t1", "ev") is None

    def test_reloaded_first_stamps_win_over_derivation(self, tmp_path):
        # "f" lines are restored verbatim (in a file written under the
        # former row bound they may outlive their rows); rows derived later
        # must not overwrite them, and the old meta keys are ignored
        path = tmp_path / "p.jsonl"
        meta = {"level": "full", "max_rows": None, "retention": "bound",
                "recorded": 3, "dropped": 1, "spilled": 0}
        path.write_text("\n".join(json.dumps(line) for line in (
            {"meta": meta},
            ["f", 0.5, "gone", "a"],
            ["f", 0.75, "t", "a"],
            ["r", 1.0, "t", "a", "c"],
            ["r", 2.0, "t", "b", "c"])) + "\n")
        p = Profiler.from_jsonl(str(path))
        assert p.timestamp("t", "a") == 0.75 and p.timestamp("t", "b") == 2.0
        assert p.uids_with_event("a") == ["gone", "t"]
        assert (p.recorded, p.dropped, len(p)) == (3, 1, 2)
