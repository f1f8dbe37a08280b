"""Both span exporters, byte for byte, against files recorded while every
span the tracer handed out was a ``Span`` object built by its replay.

``data/trace_golden.*`` were written by running this file as a script on
that commit.  One fixed traced run covers what the replay has to get right:
node faults whose retries bump the attempt after ``reschedule``, a task
cancelled while it waits, a staged campaign whose node spans parent their
tasks and transfers, an explicit ``start_span``/``end_span`` pair, a
``set_attr`` on a live task root, and a query in the middle of the run whose
export shows open spans.
"""

from pathlib import Path

from repro import (
    FaultModel,
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.resilience import RetryPolicy
from repro.workflows import CampaignGraph, TaskNode

DATA = Path(__file__).parent / "data"
#: export name -> the golden file it must reproduce
GOLDEN = {"mid.jsonl": DATA / "trace_golden_mid.jsonl",
          "end.jsonl": DATA / "trace_golden_end.jsonl",
          "end.chrome.json": DATA / "trace_golden_end.chrome.json"}


def campaign():
    """stage -> simulate, with staged inputs: node, task and transfer
    spans in one trace per node."""
    def staged(name, i, duration):
        return TaskDescription(
            name=f"{name}{i}", executable=name, cores_per_rank=2,
            duration_s=duration,
            input_staging=[{"source": f"shard-{i % 2}",
                            "size_bytes": 1e9}])
    return CampaignGraph(name="g", nodes=[
        TaskNode(name="stage",
                 build=lambda c: [staged("stage", i, 15.0)
                                  for i in range(2)]),
        TaskNode(name="simulate", deps=("stage",),
                 build=lambda c: [staged("sim", i, 30.0) for i in range(3)]),
    ])


def exports(tmp: Path):
    """Run the scenario; returns export name -> the bytes written."""
    config = ResilienceConfig(
        heartbeat_interval_s=5.0,
        retry=RetryPolicy(max_retries=6, backoff_base_s=1.0),
        faults=FaultModel(node_mtbf_s=200.0, node_mttr_s=30.0))
    with Session(seed=23, resilience_config=config,
                 observability=ObservabilityConfig(
                     monitors=False, sample_interval_s=30.0)) as session:
        tracer = session.observability.tracer
        pmgr, tmgr = PilotManager(session), TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=3, runtime_s=1e6))
        tmgr.add_pilots(pilot)
        runner = session.campaign_runner(tmgr)
        proc = session.engine.process(runner.run_campaign([campaign()]))
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="bag", cores_per_rank=1 + i % 3 * 8,
                            duration_s=40.0 + 5.0 * (i % 4))
            for i in range(30)], window=12, chunk_size=3)
        marker = tracer.start_span("checkpoint", "driver",
                                   attrs={"phase": "warm-up"})
        session.run(until=60.0)
        tracer.task_root(tasks[20].uid).set_attr("note", "watched")
        tmgr.cancel_tasks(tasks[-1])
        tracer.to_jsonl(str(tmp / "mid.jsonl"))  # the mid-run query
        tracer.end_span(marker)
        session.run(until=session.engine.all_of(
            [proc, tmgr.wait_tasks(tasks)]))
        session.quiesce()
        pmgr.cancel_pilots([pilot])
        session.run()
        assert any(t.attempts > 1 for t in tasks)
        tracer.to_jsonl(str(tmp / "end.jsonl"))
        tracer.to_chrome_trace(str(tmp / "end.chrome.json"))
    return {name: (tmp / name).read_bytes() for name in GOLDEN}


def test_the_exporters_reproduce_the_golden_bytes(tmp_path):
    got = exports(tmp_path)
    for name, path in GOLDEN.items():
        assert got[name] == path.read_bytes(), name


def test_the_golden_run_covers_every_span_kind():
    import json
    spans = [json.loads(line) for line in
             GOLDEN["end.jsonl"].read_text().splitlines()]
    mid = [json.loads(line) for line in
           GOLDEN["mid.jsonl"].read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"reschedule", "recovery", "transfer", "checkpoint"} <= names
    assert {s["category"] for s in spans} >= {
        "task", "data", "campaign", "campaign_node", "driver"}
    assert any(s["attrs"].get("attempt", 1) >= 2 for s in spans)
    assert any(s["attrs"].get("note") == "watched" for s in spans)
    assert any(s["end"] is None for s in mid)
    assert all(s["end"] is not None for s in spans)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in exports(Path(tmp)).items():
            GOLDEN[name].write_bytes(data)
            print(f"wrote {GOLDEN[name]} ({len(data)} bytes)")
