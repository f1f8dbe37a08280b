"""The profile path end to end: what one plain task costs the profiler
while it runs (nine flat records, no row, nothing for the cyclic collector
to walk), and who pays for the rows instead (the first reader, once)."""

import gc

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


def count_rows_built(monkeypatch):
    """Count every ``ProfileRow`` constructed from here on."""
    built = [0]
    new = ProfileRow.__new__

    def counted(cls, *fields):
        built[0] += 1
        return new(cls, *fields)

    monkeypatch.setattr(ProfileRow, "__new__", counted)
    return built


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
            assert len(profiler._log) == 4 * n and profiler._rows == []
            assert profiler._indices == ({}, {}, {})


@pytest.mark.parametrize("level", Profiler.LEVELS)
def test_nothing_is_derived_while_the_run_is_going(monkeypatch, level):
    # 9,000+ records: past any chunk a run could have closed on the way
    built = count_rows_built(monkeypatch)
    session, _ = bag_session(1000, profile=level)
    with session:
        profiler = session.profiler
        assert profiler.recorded > 9000
        assert len(profiler._log) == \
            (0 if level == "off" else 4 * profiler.recorded)
        assert built[0] == 0 and profiler._rows == []
        assert profiler._indices == ({}, {}, {})    # no first stamp either
        # the first reader derives what the level keeps, and only that
        stamped = len(profiler.uids_with_event("exec_start"))
        assert stamped == (0 if level == "off" else 1000)
        assert profiler._log == []
        assert built[0] == len(profiler) == \
            (profiler.recorded if level == "full" else 0)


def test_the_first_reader_builds_each_row_once(monkeypatch):
    built = count_rows_built(monkeypatch)
    session, tmgr = bag_session(50)
    with session:
        profiler = session.profiler
        first = profiler.recorded
        assert len(profiler.events()) == first and built[0] == first
        assert profiler._log == []              # consumed, not copied
        profiler.events()
        profiler.timestamp("task.000000", "exec_start")
        assert built[0] == first                # reads build nothing twice
        run_bag(session, tmgr, 10)
        assert built[0] == first                # ... and a run builds nothing
        assert len(profiler) == first + 90 and built[0] == first + 90
        assert profiler._log == []


def test_record_leaves_nothing_for_the_collector_to_walk():
    with Session(seed=5) as session:
        record = session.profiler.record
        record(0.0, "warm", "up", "test")
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
