"""Tests for the profile-event store."""

import json

import numpy as np

from repro.pilot import Profiler


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

    def test_full_tier_max_rows_bound(self):
        p = Profiler(max_rows=3)
        for i in range(10):
            p.record(float(i), f"t{i}", "x")
        assert len(p) == 3
        assert p.dropped == 7
        # first-timestamp queries still work past the row bound
        assert p.timestamp("t9", "x") == 9.0

    def test_unknown_level_rejected(self):
        import pytest
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


class TestRetention:
    def test_bound_retention_keeps_oldest(self):
        p = Profiler(max_rows=3)
        for i in range(5):
            p.record(float(i), f"t{i}", "ev")
        assert [r.uid for r in p.events()] == ["t0", "t1", "t2"]
        assert p.dropped == 2
        assert p.recorded == 5

    def test_ring_retention_keeps_newest(self):
        p = Profiler(max_rows=3, retention="ring")
        for i in range(5):
            p.record(float(i), f"t{i}", "ev")
        assert [r.uid for r in p.events()] == ["t2", "t3", "t4"]
        assert p.dropped == 2
        assert p.recorded == 5
        assert len(p) == 3

    def test_ring_uid_and_event_queries_scan_the_window(self):
        p = Profiler(max_rows=4, retention="ring")
        for i in range(6):
            p.record(float(i), f"t{i % 2}", "a" if i % 3 else "b")
        assert [r.time for r in p.events(uid="t0")] == [2.0, 4.0]
        assert [r.time for r in p.events(uid="t1", event="a")] == [5.0]

    def test_ring_keeps_first_timestamps_for_durations(self):
        """Evictions only affect row queries: the durations store still
        answers with the *first* occurrence, as in every tier."""
        p = Profiler(max_rows=2, retention="ring")
        p.record(1.0, "t", "start")
        p.record(9.0, "t", "stop")
        p.record(11.0, "t", "start")   # evicts the 1.0 row
        assert p.timestamp("t", "start") == 1.0
        assert p.duration("t", "start", "stop") == 8.0

    def test_zero_row_ring_retains_nothing_and_counts_every_drop(self):
        # was: IndexError on the first record (evicting from an empty ring)
        ring, bound = (Profiler(max_rows=0, retention=r)
                       for r in ("ring", "bound"))
        for p in (ring, bound):
            p.record(1.0, "t", "start")
            p.record(4.0, "t", "stop")
            p.record(9.0, "t", "start")
        for p in (ring, bound):
            assert (len(p), p.events(), p.events(uid="t")) == (0, [], [])
            assert (p.recorded, p.dropped) == (3, 3)
            assert p.duration("t", "start", "stop") == 3.0
            assert p.uids_with_event("start") == ["t"]

    def test_session_accepts_a_zero_row_ring(self):
        from repro.pilot import Session
        with Session(profile_retention="ring", profile_max_rows=0) as s:
            s.profiler.record(0.0, "t", "x")
            assert (len(s.profiler), s.profiler.dropped) == (0, 1)
            assert s.profiler.timestamp("t", "x") == 0.0

    def test_ring_without_max_rows_is_unbounded(self):
        p = Profiler(retention="ring")
        for i in range(10):
            p.record(float(i), "t", f"e{i}")
        assert len(p) == 10
        assert p.dropped == 0

    def test_retention_validation(self):
        import pytest
        with pytest.raises(ValueError, match="retention"):
            Profiler(retention="lifo")

    def test_clear_resets_ring(self):
        p = Profiler(max_rows=2, retention="ring")
        p.record(1.0, "t", "a")
        p.clear()
        assert len(p) == 0 and p.recorded == 0


class TestUidIndex:
    def test_uid_queries_match_linear_scan(self):
        p = Profiler()
        for i in range(100):
            p.record(float(i), f"t{i % 7}", f"e{i % 3}")
        for uid in {f"t{i}" for i in range(7)}:
            indexed = p.events(uid=uid)
            scanned = [r for r in p._rows if r.uid == uid]
            assert indexed == scanned

    def test_ring_eviction_prunes_the_index_exactly(self):
        p = Profiler(max_rows=4, retention="ring")
        for i in range(10):
            p.record(float(i), f"t{i % 3}", "ev")
        # the index holds exactly the retained rows, per uid, in order
        for uid in ("t0", "t1", "t2"):
            assert p.events(uid=uid) == \
                [r for r in p._rows if r.uid == uid]
        # uids whose every row was evicted vanish from the index
        p2 = Profiler(max_rows=1, retention="ring")
        p2.record(0.0, "old", "ev")
        p2.record(1.0, "new", "ev")
        assert p2.events(uid="old") == []
        assert "old" not in p2._by_uid

    def test_bound_retention_index_stops_at_cap(self):
        p = Profiler(max_rows=2)
        p.record(0.0, "a", "x")
        p.record(1.0, "a", "y")
        p.record(2.0, "a", "z")  # dropped past the bound
        assert [r.event for r in p.events(uid="a")] == ["x", "y"]


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
        assert q.level == p.level and q.max_rows == p.max_rows
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

    def test_round_trip_ring_preserves_window_and_stamps(self, tmp_path):
        p = Profiler(max_rows=2, retention="ring")
        self._populate(p)  # evicts the t=1.0 row
        path = tmp_path / "p.jsonl"
        p.to_jsonl(str(path))
        q = Profiler.from_jsonl(str(path))
        assert q.retention == "ring" and q.max_rows == 2
        assert q.events() == p.events()
        # the evicted row's first stamp survives via the "f" lines
        assert q.timestamp("t0", "start") == 1.0
        assert q.dropped == p.dropped

    def test_uid_index_rebuilt_on_load(self, tmp_path):
        p = self._populate(Profiler())
        path = tmp_path / "p.jsonl"
        p.to_jsonl(str(path))
        q = Profiler.from_jsonl(str(path))
        assert [r.event for r in q.events(uid="t0")] == ["start", "stop"]


# -- derived indices ----------------------------------------------------------
class TestDerivedIndices:
    """Records append to a flat log; rows and indices are derived when a
    reader arrives (``tests/test_properties.py`` holds every configuration
    to the eager reference profiler)."""

    def test_record_alone_builds_no_index(self):
        p = Profiler()
        for i in range(100):
            p.record(float(i), f"t{i % 3}", "ev")
        assert p._indices == ({}, {}, {}) and p._indexed == 0
        assert len(p.events()) == 100          # needs no index either
        assert p._indexed == 0
        assert p.timestamp("t1", "ev") == 1.0  # first query derives
        assert p._indexed == 100
        p.record(200.0, "t9", "ev")            # ... and later ones catch up
        assert p.uids_with_event("ev") == ["t0", "t1", "t2", "t9"]
        p.clear()
        assert p._indexed == 0 and p.timestamp("t1", "ev") is None

    def test_configurations_that_drop_rows_stamp_when_the_chunk_closes(
            self, tmp_path):
        # no reader in sight: record() closes a full chunk itself, and the
        # first stamps are folded before retention lets the rows go
        for kwargs in ({"level": "durations", "max_rows": 2}, {"max_rows": 2},
                       {"max_rows": 2, "retention": "ring"},
                       {"max_rows": 2, "retention": "spill",
                        "spill_path": str(tmp_path / "s.jsonl")}):
            p = Profiler(**kwargs)
            p.record(1.0, "t", "a")
            assert p._indices[0] == {} and len(p._log) == 4, kwargs
            p.record(2.0, "t", "b")
            p.record(3.0, "t", "c")
            assert set(p._indices[0]) == {("t", "a"), ("t", "b")}, kwargs
            assert len(p._log) == 4 and len(p._rows) <= 2, kwargs
            p.close_spill()

    def test_reloaded_first_stamps_win_over_derivation(self, tmp_path):
        # "f" lines are restored verbatim (they may outlive their rows, or
        # precede them); rows derived later must not overwrite them
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
        assert not p._drops
        assert p.timestamp("t", "a") == 0.75 and p.timestamp("t", "b") == 2.0
        assert p.uids_with_event("a") == ["gone", "t"]
        assert (p.recorded, p.dropped, len(p)) == (3, 1, 2)
