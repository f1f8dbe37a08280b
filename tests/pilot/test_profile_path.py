"""The profile path end to end: what one plain task costs the profiler
while it runs (nine columnar records, no row, nothing for the cyclic
collector to walk), and what a reader costs instead: each row is built
when it is read and none is kept, the first stamps derive without rows."""

import gc
import tracemalloc
from collections import deque

import pytest

from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)
from repro.pilot.profiler import Profiler, ProfileRow

#: traced bytes the first stamp query keeps per record (see the test below)
FIRST_STAMP_BYTES_PER_RECORD = 48


def count_rows_built(monkeypatch):
    """Count every ``ProfileRow`` constructed from here on."""
    built = [0]
    new = ProfileRow.__new__

    def counted(cls, *fields):
        built[0] += 1
        return new(cls, *fields)

    monkeypatch.setattr(ProfileRow, "__new__", counted)
    return built


def rows_held(profiler):
    """The ``ProfileRow``s reachable from the profiler's own stores."""
    seen, stack, held = set(), [vars(profiler)], 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        held += isinstance(obj, ProfileRow)
        if isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple, deque, set)):
            stack.extend(obj)
    return held


def logged(profiler):
    """Records held in the profiler's columns (all three the same length)."""
    n = len(profiler._times)
    assert len(profiler._uids) == len(profiler._codes) == n
    return n


def run_bag(session, tmgr, n_tasks):
    tasks = tmgr.submit_tasks(
        [TaskDescription(executable="x", duration_s=10.0)
         for _ in range(n_tasks)])
    session.run(until=tmgr.wait_tasks(tasks))
    assert all(t.state == TaskState.DONE for t in tasks)


def bag_session(n_tasks, profile="full"):
    """A session that has run *n_tasks* plain tasks, its profile unread."""
    session = Session(seed=5, profile=profile)
    pmgr, tmgr = PilotManager(session), TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    session.run(until=pmgr.wait_active([pilot]))
    run_bag(session, tmgr, n_tasks)
    return session, tmgr


def test_one_plain_task_costs_nine_records_and_no_row(monkeypatch):
    built = count_rows_built(monkeypatch)
    (few, _), (many, _) = bag_session(50), bag_session(100)
    with few, many:
        records = [s.profiler.recorded for s in (few, many)]
        assert (records[1] - records[0]) / 50 == 9  # constants cancel
        assert built[0] == 0                        # nobody has asked yet
        for session, n in zip((few, many), records):
            profiler = session.profiler
            assert logged(profiler) == n and rows_held(profiler) == 0
            assert profiler._stamps == {} and profiler._by_uid == {}


@pytest.mark.parametrize("level", Profiler.LEVELS)
def test_nothing_is_derived_while_the_run_is_going(monkeypatch, level):
    # 9,000+ records: past any chunk a run could have closed on the way
    built = count_rows_built(monkeypatch)
    session, _ = bag_session(1000, profile=level)
    with session:
        profiler = session.profiler
        assert profiler.recorded > 9000
        kept = 0 if level == "off" else profiler.recorded
        assert logged(profiler) == kept
        assert profiler._stamps == {} and profiler._by_uid == {}
        # the first reader derives what the level keeps, and only that:
        # first stamps, from the log, without building a row
        stamped = len(profiler.uids_with_event("exec_start"))
        assert stamped == (0 if level == "off" else 1000)
        assert built[0] == 0 and rows_held(profiler) == 0
        assert profiler._by_uid == {}
        # the full level keeps its log as the row store; durations folds it
        assert logged(profiler) == (kept if level == "full" else 0)
        assert len(profiler) == \
            (profiler.recorded if level == "full" else 0)


def test_no_read_leaves_a_row_held_by_the_profiler(monkeypatch):
    built = count_rows_built(monkeypatch)
    session, tmgr = bag_session(50)
    with session:
        profiler = session.profiler
        first = profiler.recorded
        rows = profiler.events()
        assert len(rows) == first and built[0] == 0   # a view: no row yet
        assert sum(1 for _ in rows) == first and built[0] == first
        assert logged(profiler) == first             # read, not consumed
        assert profiler.timestamp("task.0000", "exec_start") is not None
        profiler.uids_with_event("exec_stop")
        (row,) = profiler.events("task.0000", "exec_start")
        assert built[0] == first + 1                  # stamps build none
        assert len(profiler.events("task.0001")) == 9
        run_bag(session, tmgr, 10)
        assert built[0] == first + 1                  # ... nor does a run
        assert len(rows) == first                     # the view is a snapshot
        assert len(profiler) == first + 90
        assert rows_held(profiler) == 0
        assert logged(profiler) == first + 90


def test_a_first_stamp_query_keeps_little_per_record():
    # the first timestamp() after a task bag derives the first-stamp index
    # and nothing else: 43.7 traced bytes per record on CPython 3.10, 34.9
    # on 3.11 to 3.13, whose str-keyed dict entries drop the stored hash
    # (38.4 / 29.6 while the flat log's boxed times were shared with the
    # stamps, which now take one float per instant; 305 / 311 B while it
    # also built every row, a (uid, event) key per pair and a row deque
    # per uid); the ceiling is the largest while the log was flat plus 25%
    session, _ = bag_session(5000)
    with session:
        profiler = session.profiler
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert profiler.timestamp("task.0000", "exec_start") is not None
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        per_record = kept / profiler.recorded
        assert per_record <= FIRST_STAMP_BYTES_PER_RECORD, per_record


def test_record_leaves_nothing_for_the_collector_to_walk():
    with Session(seed=5) as session:
        record = session.profiler.record
        # the pair's first record interns it in the code table: a cost per
        # (event, component) pair, not per record
        record(0.0, "warm", "exec_start", "agent")
        uids = [f"task.{i:06d}" for i in range(2000)]
        now = 12.5
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            for uid in uids:
                record(now, uid, "exec_start", "agent")
            after = len(gc.get_objects())
        finally:
            gc.enable()
        assert after - before == 0
        assert len(session.profiler) == 2001


def test_a_reader_leaves_the_collector_as_it_found_it():
    # rows are built with the collector paused; whoever had it off keeps it off
    for enabled in (True, False):
        profiler = Profiler()
        profiler.record(1.0, "t", "a")
        (gc.enable if enabled else gc.disable)()
        try:
            assert len(profiler.events()) == 1
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
