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
    assert type(next(iter(log)).nbytes) is float
    assert log == logged() and log != logged(ROWS[:2])
    assert repr(log) == repr(want)
    with pytest.raises(TypeError):
        hash(log)
    assert (log == "rows") is False


def test_a_read_record_is_a_snapshot():
    log = logged()
    assert next(iter(log)) is not next(iter(log))
    assert next(iter(log)) == next(iter(log))


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
        assert list(ts.records)[-1].finished == session.now
