"""A client's result log: what ``infer`` returned is what the log reads back.

``data/parent_client_results.json`` was written by running this file as a
script on the commit where ``ServiceClient.results`` was still a list of
the ``InferenceResult`` objects ``infer`` returned.  The scenario below has
to reproduce it exactly: every row's ``repr`` and the type of every field
(the ``repr`` alone would miss an ``int`` read back as a ``float``).
"""

import gc
import json
from pathlib import Path

import pytest

from repro import (
    JoinShortestQueueBalancer,
    RoundRobinBalancer,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
    Session,
)
from repro.core.client import InferenceResult, RequestTimeout, ResultLog

GOLDEN = Path(__file__).parent / "data" / "parent_client_results.json"

FIELDS = ("client_uid", "service_uid", "ok", "submitted_at", "completed_at",
          "response_time", "communication", "service_time",
          "inference_time", "queue_time", "payload", "retries")


def client_streams():
    """Seeded request streams; returns ``(clients, returned)``, the second
    the results each client's ``infer`` returned, in order.

    Four clients share a join-shortest-queue balancer over a noop service
    and a batching llama service behind a one-slot queue: busy replies and
    a backed-off retry.  A client that never retries, with a timeout
    shorter than a llama inference, cycles round-robin over both: busy
    results while the crowd runs, then timeouts.  A last client streams
    ``run_workload`` at the noop service."""
    with Session(seed=31) as session:
        engine = session.engine
        smgr = ServiceManager(session, registry_platform="delta")
        noop = smgr.start_remote(ServiceDescription(model="noop"),
                                 platform="delta")
        llama = smgr.start_remote(
            ServiceDescription(model="llama-8b", backend="vllm",
                               max_batch_size=2, max_queue_depth=1),
            platform="r3")
        session.run(until=smgr.wait_ready([noop, llama]))
        targets = [noop.address, llama.address]

        crowd = [ServiceClient(session, platform="delta", max_retries=r)
                 for r in (0, 2, 6, 6)]
        impatient = ServiceClient(session, platform="delta", timeout_s=0.05,
                                  max_retries=0)
        streamer = ServiceClient(session, platform="delta")
        clients = crowd + [impatient, streamer]
        returned = {c.uid: [] for c in clients}

        def work(client, balancer, n, after=None):
            for i in range(n):
                if i == n // 2 and after is not None:
                    yield after               # the llama queue has room
                target = balancer.pick(targets)
                try:
                    result = yield from client.infer(
                        target, f"request {i}", {"max_tokens": 16 + i % 3},
                        balancer=balancer, targets=targets)
                except RequestTimeout:
                    continue
                returned[client.uid].append(result)

        def stream():
            results = yield from streamer.run_workload([noop.address], 20)
            returned[streamer.uid].extend(results)

        shared = JoinShortestQueueBalancer(smgr.registry)
        procs = [engine.process(work(c, shared, 10)) for c in crowd]
        procs.append(engine.process(work(impatient, RoundRobinBalancer(), 8,
                                         after=engine.all_of(procs))))
        procs.append(engine.process(stream()))
        session.run(until=engine.all_of(procs))
        return clients, [returned[c.uid] for c in clients]


def transcript(rows_per_client):
    """Per client, each row's ``repr`` and its fields' type names."""
    return [[[repr(row), [type(getattr(row, f)).__name__ for f in FIELDS]]
             for row in rows] for rows in rows_per_client]


# ---------------------------------------------------------------------------
# Equivalence with the parent, and with what infer returned
# ---------------------------------------------------------------------------

def test_the_log_reads_back_the_parent_transcript():
    clients, returned = client_streams()
    # the scenario has teeth: every path it is meant to cover ran
    assert sum(c.busy_replies for c in clients) > 0
    assert sum(c.timeouts for c in clients) > 0
    assert sum(c.retries for c in clients) > 0
    rows = [r for c in clients for r in c.results]
    assert any(r.busy for r in rows) and any(r.retries for r in rows)
    assert len(returned[-2]) < 8                  # a request timed out
    golden = json.loads(GOLDEN.read_text())
    assert transcript(c.results for c in clients) == golden
    assert transcript(returned) == golden


def test_rows_equal_the_results_infer_returned_field_by_field():
    clients, returned = client_streams()
    for client, results in zip(clients, returned):
        rows = list(client.results)
        assert len(rows) == len(results) > 0
        for row, result in zip(rows, results):
            for name in FIELDS:
                got, want = getattr(row, name), getattr(result, name)
                assert type(got) is type(want) and got == want, name
            assert repr(row) == repr(result)
            assert row == result


def test_run_workload_returns_the_rows_it_added():
    with Session(seed=5) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handle = smgr.start_remote(ServiceDescription(model="noop"),
                                   platform="delta")
        session.run(until=smgr.wait_ready([handle]))
        client = ServiceClient(session, platform="delta")

        def work(k):
            return (yield from client.run_workload([handle.address], k))

        first = session.run(until=session.engine.process(work(3)))
        second = session.run(until=session.engine.process(work(4)))
        assert type(second) is list and len(second) == 4
        assert client.results == first + second


# ---------------------------------------------------------------------------
# The log as a sequence
# ---------------------------------------------------------------------------

def made_row(i, client_uid="client.t"):
    """A row whose response time and communication are derived the way
    ``ServiceClient._decompose`` derives them."""
    t0, t1 = 0.1 * i, 0.1 * i + 0.003 * (i + 1)
    service, inference = 1e-4 * i, 2e-4 * i
    rt = t1 - t0
    return InferenceResult(client_uid, f"svc.{i % 2}", i % 3 != 0, t0, t1,
                           rt, rt - service - inference, service, inference,
                           service / 2, {"ok": i % 3 != 0, "n": i}, i % 4)


def log_of(n):
    log, rows = ResultLog("client.t"), [made_row(i) for i in range(n)]
    for row in rows:
        log.append(row)
    return log, rows


class TestResultLog:
    def test_reads_back_what_was_appended(self):
        log, rows = log_of(5)
        assert len(log) == 5 and list(log) == rows
        assert [repr(r) for r in log] == [repr(r) for r in rows]

    def test_an_int_index_reads_one_row_negative_too(self):
        log, rows = log_of(5)
        assert log[0] == rows[0] and log[3] == rows[3]
        assert log[-1] == rows[-1] and log[-5] == rows[0]

    def test_an_index_out_of_range_raises(self):
        log, _ = log_of(5)
        for index in (5, -6, 100):
            with pytest.raises(IndexError):
                log[index]
        with pytest.raises(IndexError):
            ResultLog("client.t")[0]

    def test_a_slice_is_a_list_of_rows(self):
        log, rows = log_of(6)
        assert type(log[1:4]) is list and log[1:4] == rows[1:4]
        assert log[::-2] == rows[::-2] and log[-2:] == rows[-2:]
        assert log[7:] == [] and log[:] == rows

    def test_equality_with_lists_and_logs(self):
        log, rows = log_of(4)
        assert ResultLog("client.t") == [] and [] == ResultLog("client.x")
        assert log == rows and rows == log
        assert log != rows[:-1] and log != rows + rows[:1]
        changed = rows[:-1] + [made_row(4)]
        assert log != changed
        twin, _ = log_of(4)
        assert log == twin and log != log_of(3)[0]
        assert log != tuple(rows) and log != "rows"
        with pytest.raises(TypeError):
            hash(log)

    def test_each_read_builds_a_fresh_row(self):
        log, rows = log_of(3)
        assert log[0] is not log[0]
        assert next(iter(log)) is not next(iter(log))
        row = log[1]
        row.retries, row.ok = 99, False
        assert log[1] == rows[1] and log[1].retries == rows[1].retries

    def test_a_row_it_could_not_read_back_is_refused(self):
        log, rows = log_of(2)
        row = made_row(2)
        foreign = made_row(2, client_uid="client.other")
        skewed = made_row(2)
        skewed.response_time += 1e-3
        chatty = made_row(2)
        chatty.communication *= 2
        for bad in (foreign, skewed, chatty):
            with pytest.raises(ValueError):
                log.append(bad)
        assert log == rows
        log.append(row)
        assert log == rows + [row]


# ---------------------------------------------------------------------------
# A payload reads back as the reply's: keys, values, order and identity
# ---------------------------------------------------------------------------

NAN = float("nan")
SHARED = [1, [2, 3]]

#: payload streams, each appended row after row into one log
STREAMS = {
    "true, one, one-point-oh": [{"v": True}, {"v": 1}, {"v": 1.0},
                                {"v": True}, {"v": True}],
    "zero and minus zero": [{"v": 0.0}, {"v": -0.0}, {"v": 0.0},
                            {"v": -0.0}],
    "nan": [{"v": NAN}, {"v": NAN}, {"v": float("nan")}, {"v": 1.0}],
    "a nested list shared by two rows": [{"ok": True, "data": SHARED},
                                         {"ok": True, "data": SHARED},
                                         {"ok": True, "data": [1, [2, 3]]}],
    "the same keys in another order": [{"a": 1, "b": 2}, {"b": 2, "a": 1},
                                       {"a": 1, "b": 2}],
    "empty and none": [{}, {}, None, None, {}, {"ok": True}, None],
    "keys true and one": [{True: "x"}, {1: "x"}, {1.0: "x"}],
    "a busy reply between two ok replies": [
        {"ok": True, "text": "", "model": "noop", "prompt_tokens": 1,
         "completion_tokens": 0},
        {"ok": False, "busy": True, "error": "busy", "queue_depth": 1,
         "queue_bound": 1},
        {"ok": True, "text": "", "model": "noop", "prompt_tokens": 1,
         "completion_tokens": 0}],
}


def with_payload(i, payload):
    row = made_row(i)
    row.payload = payload
    return row


def assert_reads_back(read, kept):
    """*read* is *kept*, field for field: ``repr``, type, and every payload
    key and value the very object."""
    assert repr(read) == repr(kept)
    for name in FIELDS:
        assert type(getattr(read, name)) is type(getattr(kept, name)), name
    if type(kept.payload) is not dict:
        assert read.payload is kept.payload
        return
    assert read.payload is not kept.payload
    assert list(map(id, read.payload)) == list(map(id, kept.payload))
    assert list(map(id, read.payload.values())) == \
        list(map(id, kept.payload.values()))


@pytest.mark.parametrize("stream", list(STREAMS), ids=list(STREAMS))
def test_a_payload_reads_back_as_its_reply(stream):
    log = ResultLog("client.t")
    rows = [with_payload(i, p) for i, p in enumerate(STREAMS[stream])]
    for row in rows:
        log.append(row)
    for read, kept in zip(log, rows):
        assert_reads_back(read, kept)
    for i, kept in enumerate(rows):
        assert_reads_back(log[i], kept)
        assert_reads_back(log[i - len(rows)], kept)
    for read, kept in zip(log[1::2], rows[1::2]):
        assert_reads_back(read, kept)


def test_noop_replies_share_one_form_and_distinct_text_shares_keys():
    """Rows that repeat object for object keep one form; rows whose keys
    repeat keep one keys tuple; a ``dict`` is never kept."""
    log = ResultLog("client.t")
    ok = STREAMS["a busy reply between two ok replies"][0]
    for i in range(4):
        log.append(with_payload(i, dict(ok)))
    for i in range(4, 8):
        log.append(with_payload(i, dict(ok, text=f"reply {i}")))
    forms = log._refs[1::2]
    assert not any(type(form) is dict for form in forms)
    assert len(set(map(id, forms[:4]))) == 1
    assert len(set(map(id, forms[4:]))) == 4
    assert len({id(form[-1]) for form in forms}) == 1


def test_a_read_payload_is_a_fresh_dict():
    log, rows = ResultLog("client.t"), []
    ok = STREAMS["a busy reply between two ok replies"][0]
    for i in range(3):
        rows.append(with_payload(i, dict(ok, data=SHARED)))
        log.append(rows[-1])
    first = log[0].payload
    first["text"] = "changed"
    first["extra"] = 1
    del first["ok"]
    assert log[0].payload is not log[0].payload
    for read, kept in zip(log, rows):
        assert_reads_back(read, kept)
        assert read.payload == ok | {"data": SHARED}
    assert next(iter(log)).payload == ok | {"data": SHARED}


# ---------------------------------------------------------------------------
# What a request leaves behind
# ---------------------------------------------------------------------------

def test_requests_add_almost_nothing_for_the_cyclic_collector():
    """A kept result is numbers in an array and its payload's form, one
    tuple of the reply's values and keys that repeating replies share:
    N requests leave the collector fewer than N/100 new objects to
    traverse (one tracked ``InferenceResult`` each while results were
    objects)."""
    n = 2_000
    with Session(seed=5) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handle = smgr.start_remote(ServiceDescription(model="noop"),
                                   platform="delta")
        session.run(until=smgr.wait_ready([handle]))
        client = ServiceClient(session, platform="delta")

        def work(k):
            yield from client.run_workload([handle.address], k)

        session.run(until=session.engine.process(work(10)))   # warm
        gc.collect()
        before = len(gc.get_objects())
        session.run(until=session.engine.process(work(n)))
        gc.collect()
        added = len(gc.get_objects()) - before
        assert len(client.results) == n + 10
        assert added < n / 100, added


if __name__ == "__main__":
    clients, _ = client_streams()
    golden = transcript(c.results for c in clients)
    body = ",\n".join(" [\n" + ",\n".join("  " + json.dumps(row)
                                          for row in rows) + "\n ]"
                      for rows in golden)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("[\n" + body + "\n]\n")
    print(f"wrote {GOLDEN}")
