"""The transfer log: completed transfers kept as columns, each
:class:`TransferRecord` built when it is read."""

import gc

import pytest

from repro.data.transfers import Transfer, TransferLog, TransferRecord
from repro.pilot import Session

ROWS = [("localhost", "delta", 1e9, 0.0, 1.5, "task.0000"),
        ("delta", "frontier", 0.0, 2.0, 2.0, ""),
        ("localhost", "delta", 3, 4.25, 7.0, "task.0002")]


def logged(rows=ROWS):
    log = TransferLog()
    for row in rows:
        log.add(*row)
    return log


def records(rows=ROWS):
    return [TransferRecord(src, dst, float(nbytes), started, finished, uid)
            for src, dst, nbytes, started, finished, uid in rows]


def test_reads_build_the_records_it_was_given():
    log, want = logged(), records()
    assert len(log) == 3 and list(log) == want and log == want
    assert [log[i] for i in range(3)] == want
    assert log[-1] == want[-1] and log[-3] == want[0]
    assert log[1:] == want[1:] and log[::-1] == want[::-1]
    assert type(log[0].nbytes) is float and log[0].duration == 1.5
    assert log == logged() and log != logged(ROWS[:2])
    assert repr(log) == repr(want)
    for index in (3, -4):
        with pytest.raises(IndexError):
            log[index]
    with pytest.raises(TypeError):
        hash(log)
    assert (log == "rows") is False


def test_a_read_record_is_a_snapshot():
    log = logged()
    assert log[0] is not log[0] and log[0] == log[0]


def test_a_transfer_keeps_no_object_of_its_own():
    log = TransferLog()
    log.add(*ROWS[0])
    n = 5000
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        for i in range(n):
            log.add("localhost", "delta", 1e6, float(i), i + 0.5, "task")
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after - before == 0 and len(log) == n + 1


def test_the_scheduler_logs_every_completed_transfer():
    with Session(seed=7) as session:
        ts = session.data.transfers
        landed = []
        for uid in ("a", "b"):
            ts.transfer(Transfer("localhost", "delta", 1e8, uid,
                                 lambda arg, error: landed.append(error),
                                 None))
        session.run()
        assert landed == [None, None]
        assert isinstance(ts.records, TransferLog)
        assert sorted(r.uid for r in ts.records) == ["a", "b"]
        assert [r.nbytes for r in ts.records] == [1e8, 1e8]
        assert ts.records[-1].finished == session.now
