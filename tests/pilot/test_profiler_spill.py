"""Disk-spilling profiler retention: streaming, finalisation, reload.

The ``"spill"`` retention keeps full-tier fidelity at bounded memory by
streaming row chunks to a JSONL file.  These tests pin the accounting
invariant (``recorded == spilled + buffered``, nothing dropped), the
finalised-file format (readable by :meth:`Profiler.from_jsonl` and the
offline span reconstruction), and equivalence with unbounded in-memory
retention.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Session, spans_from_profiler
from repro.pilot import Profiler
from repro.pilot.states import TaskState


def _record_lifecycle(profiler, uid, t0):
    for i, state in enumerate([
            TaskState.TMGR_SCHEDULING, TaskState.TMGR_STAGING_INPUT,
            TaskState.AGENT_SCHEDULING, TaskState.AGENT_EXECUTING,
            TaskState.TMGR_STAGING_OUTPUT, TaskState.DONE]):
        profiler.record(t0 + i, uid, f"state:{state}", "tmgr")


class TestSpillStreaming:
    def test_requires_spill_path(self):
        with pytest.raises(ValueError, match="spill_path"):
            Profiler(retention="spill")

    def test_chunked_flush_bounds_memory(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=4, retention="spill", spill_path=str(path))
        for i in range(11):
            p.record(float(i), f"t{i}", "ev", "comp")
            assert len(p) < 4 or len(p) == 4  # never grows past one chunk
        # two full chunks went to disk, three rows remain buffered
        assert p.spilled == 8
        assert len(p) == 3
        assert p.recorded == p.spilled + len(p)
        assert p.dropped == 0

    def test_buffered_tail_stays_queryable(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=3, retention="spill", spill_path=str(path))
        for i in range(7):
            p.record(float(i), f"t{i % 2}", "ev")
        # events() sees only the in-memory tail ...
        assert [r.time for r in p.events()] == [6.0]
        assert [r.time for r in p.events(uid="t0")] == [6.0]
        # ... but first timestamps survive every flush
        assert p.timestamp("t0", "ev") == 0.0
        assert p.timestamp("t1", "ev") == 1.0

    def test_close_spill_idempotent_and_noop_elsewhere(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=2, retention="spill", spill_path=str(path))
        p.record(0.0, "t", "a")
        assert p.close_spill() == str(path)
        assert p.close_spill() == str(path)  # second call: no-op
        assert Profiler().close_spill() is None

    def test_record_after_close_buffers_in_memory(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=2, retention="spill", spill_path=str(path))
        p.record(0.0, "t", "a")
        p.close_spill()
        spilled_before = p.spilled
        for i in range(10):  # past the chunk size: must not touch the file
            p.record(float(i), "late", "b")
        assert p.spilled == spilled_before
        assert len(p) == 10
        assert p.timestamp("late", "b") == 0.0

    def test_clear_restarts_an_open_spill_file(self, tmp_path):
        # was: rows stayed on disk and in ``spilled`` while ``recorded``
        # went to 0, so the final meta line disagreed with the file
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=2, retention="spill", spill_path=str(path))
        for i in range(5):
            p.record(float(i), "old", f"e{i}")
        assert p.spilled == 4
        p.clear()
        assert (p.recorded, p.spilled, len(p)) == (0, 0, 0)
        for i in range(3):
            p.record(10.0 + i, "new", "ev")
        assert (p.spilled, len(p)) == (2, 1)  # chunks count from the restart
        p.close_spill()
        *lines, final = [json.loads(ln)
                         for ln in path.read_text().splitlines()[1:]]
        assert lines == [["r", 10.0, "new", "ev", ""],
                         ["r", 11.0, "new", "ev", ""],
                         ["r", 12.0, "new", "ev", ""],
                         ["f", 10.0, "new", "ev"]]
        assert (final["meta"]["recorded"], final["meta"]["spilled"]) == (3, 3)
        q = Profiler.from_jsonl(str(path))
        assert (q.recorded, len(q), q.timestamp("old", "e0")) == (3, 3, None)

    def test_clear_after_close_leaves_the_finalised_file(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=2, retention="spill", spill_path=str(path))
        p.record(0.0, "t", "a")
        p.close_spill()
        before = path.read_bytes()
        p.clear()
        assert path.read_bytes() == before and len(p) == 0

    def test_to_jsonl_refused_in_spill_mode(self, tmp_path):
        p = Profiler(max_rows=2, retention="spill",
                     spill_path=str(tmp_path / "p.jsonl"))
        with pytest.raises(ValueError, match="close_spill"):
            p.to_jsonl(str(tmp_path / "other.jsonl"))


class TestSpillReload:
    def test_reload_recovers_every_row(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=3, retention="spill", spill_path=str(path))
        reference = Profiler()  # unbounded in-memory
        for i in range(10):
            p.record(float(i), f"t{i % 3}", f"e{i % 2}", "c")
            reference.record(float(i), f"t{i % 3}", f"e{i % 2}", "c")
        p.close_spill()
        q = Profiler.from_jsonl(str(path))
        assert q.events() == reference.events()
        assert q._first == reference._first
        assert q.recorded == reference.recorded
        assert q.dropped == 0
        # uid index rebuilt across the spill boundary
        for uid in ("t0", "t1", "t2"):
            assert q.events(uid=uid) == reference.events(uid=uid)

    def test_trailing_meta_overrides_header(self, tmp_path):
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=2, retention="spill", spill_path=str(path))
        for i in range(5):
            p.record(float(i), "t", f"e{i}")
        p.close_spill()
        lines = [json.loads(ln) for ln in path.read_text().splitlines()]
        metas = [ln["meta"] for ln in lines if isinstance(ln, dict)]
        assert len(metas) == 2  # provisional header + trailing final
        assert metas[0]["recorded"] == 0
        assert metas[1]["recorded"] == 5 and metas[1]["spilled"] == 5
        assert Profiler.from_jsonl(str(path)).recorded == 5

    def test_spans_from_profiler_spill_matches_ring(self, tmp_path):
        """Span reconstruction is first-stamp based, so a tight ring and a
        spill file reconstruct identical span trees."""
        path = tmp_path / "p.jsonl"
        spill = Profiler(max_rows=4, retention="spill", spill_path=str(path))
        ring = Profiler(max_rows=4, retention="ring")
        for k, uid in enumerate(["task.0", "task.1", "task.2"]):
            _record_lifecycle(spill, uid, 10.0 * k)
            _record_lifecycle(ring, uid, 10.0 * k)
        spill.close_spill()
        reloaded = Profiler.from_jsonl(str(path))
        from_spill = [s.as_dict() for s in spans_from_profiler(reloaded)]
        from_ring = [s.as_dict() for s in spans_from_profiler(ring)]
        assert from_spill == from_ring
        assert len(from_spill) == 3 * 6  # root + 5 phases per task

    def test_attribution_from_spilled_profile(self, tmp_path):
        from repro.observability import CampaignAttribution
        path = tmp_path / "p.jsonl"
        p = Profiler(max_rows=4, retention="spill", spill_path=str(path))
        for k in range(3):
            _record_lifecycle(p, f"task.{k}", 10.0 * k)
        p.close_spill()
        attr = CampaignAttribution.from_profiler(Profiler.from_jsonl(str(path)))
        # each task standalone: one attribution node per task uid
        assert sorted(attr.nodes) == ["task.0", "task.1", "task.2"]


@pytest.mark.parametrize("level", ["full", "durations", "off"])
@pytest.mark.parametrize("retention", ["bound", "ring", "spill"])
def test_round_trip_every_tier_retention_combo(level, retention, tmp_path):
    """The satellite matrix: to_jsonl/close_spill -> from_jsonl round-trips
    first stamps, retained rows, and counters for every combination."""
    path = tmp_path / "p.jsonl"
    kwargs = {"level": level, "max_rows": 3, "retention": retention}
    if retention == "spill":
        kwargs["spill_path"] = str(path)
    p = Profiler(**kwargs)
    for i in range(8):
        p.record(float(i), f"t{i % 2}", f"e{i % 3}", "c")
    if retention == "spill" and level == "full":
        p.close_spill()
    else:
        # non-full spill profilers never stream; to_jsonl still works
        p.to_jsonl(str(path))
    q = Profiler.from_jsonl(str(path))
    assert q._first == p._first
    assert q.recorded == p.recorded and q.dropped == p.dropped
    if retention == "spill" and level == "full":
        # every spilled row comes back, unbounded
        assert len(q) == 8
    else:
        assert q.events() == p.events()


class TestSpillProperty:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 100),
                              st.sampled_from("abc"),
                              st.sampled_from("xyz")),
                    max_size=60),
           st.integers(1, 7))
    def test_spilled_plus_retained_equals_unbounded(self, tmp_path_factory,
                                                    records, chunk):
        """Spilled rows + the buffered tail are exactly the rows an
        unbounded profiler retains, in order, for any chunk size."""
        path = tmp_path_factory.mktemp("spill") / "p.jsonl"
        p = Profiler(max_rows=chunk, retention="spill", spill_path=str(path))
        reference = Profiler()
        for t, uid, event in records:
            p.record(float(t), uid, event, "c")
            reference.record(float(t), uid, event, "c")
        assert p.spilled + len(p) == reference.recorded
        assert p.dropped == 0
        p.close_spill()
        q = Profiler.from_jsonl(str(path))
        assert q.events() == reference.events()
        assert q._first == reference._first


class TestSessionSpillWiring:
    def test_profile_spill_forces_retention_and_close_finalises(self,
                                                                tmp_path):
        path = tmp_path / "session.jsonl"
        with Session(seed=1, profile_spill=str(path),
                     profile_max_rows=4) as session:
            for i in range(10):
                session.profiler.record(float(i), f"t{i}", "ev")
            assert session.profiler.retention == "spill"
            assert session.profiler.spilled == 8
        # close() finalised the spill file
        q = Profiler.from_jsonl(str(path))
        assert len(q) == 10 and q.dropped == 0

    def test_session_close_idempotent_with_spill(self, tmp_path):
        path = tmp_path / "session.jsonl"
        session = Session(seed=1, profile_spill=str(path))
        session.profiler.record(0.0, "t", "ev")
        session.close()
        session.close()  # second close: no error, file stays finalised
        assert Profiler.from_jsonl(str(path)).recorded == 1
