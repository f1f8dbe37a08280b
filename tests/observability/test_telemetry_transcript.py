"""The whole telemetry plane at every profile level, against a transcript
recorded while the tracer still kept its own copy of every transition.

``data/parent_telemetry.json`` was written by running this file as a script
on the commit where ``Tracer.on_task_state`` appended each task transition
to the tracer's lifecycle log a second time, the completion observer was one
``functools.partial`` per task and the straggler median sorted its window on
every completion.  The same scenario has to reproduce it exactly, at each of
the three profile levels: every span, the Chrome-trace bytes, the
attribution report, every metric series, histogram count and sum, every
anomaly and what the profile kept.
"""

import hashlib
import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path
from unittest.mock import patch

import pytest

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
from repro.observability import Histogram, monitor
from repro.resilience import RetryPolicy
from repro.workflows import CampaignGraph, TaskNode

GOLDEN = Path(__file__).parent / "data" / "parent_telemetry.json"
LEVELS = ("full", "durations", "off")
#: the detector tuning the transcript was recorded under
DETECTORS = dict(STRAGGLER_WINDOW=16, SLO_LATENCY_S=50.0, SLO_WINDOW=8)


def campaign():
    """stage -> (simulate, reduce): staged inputs and outputs, so campaign,
    node and transfer spans interleave with the bag's task phases."""
    def staged(name, i, duration):
        return TaskDescription(
            name=f"{name}{i}", executable=name, cores_per_rank=2,
            duration_s=duration,
            input_staging=[{"source": f"shard-{i % 3}",
                            "size_bytes": 2e9}],
            output_staging=[{"target": f"{name}-out-{i}",
                             "size_bytes": 5e8}])
    return CampaignGraph(name="study", nodes=[
        TaskNode(name="stage",
                 build=lambda c: [staged("stage", i, 20.0) for i in range(4)]),
        TaskNode(name="simulate", deps=("stage",),
                 build=lambda c: [staged("sim", i, 45.0) for i in range(6)]),
        TaskNode(name="reduce", deps=("simulate",),
                 build=lambda c: [staged("reduce", 0, 10.0)]),
    ])


def transcript(level):
    """A seeded resilient session on 4 nodes: node crashes and retries, a
    60-task bag with one 12x straggler, a staged three-node campaign beside
    it, every plane on with an SLO; quiesce, cancel, drain."""
    config = ResilienceConfig(
        heartbeat_interval_s=5.0,
        retry=RetryPolicy(max_retries=6, backoff_base_s=1.0),
        faults=FaultModel(node_mtbf_s=400.0, node_mttr_s=30.0))
    observability = ObservabilityConfig(sample_interval_s=15.0)
    with patch.multiple(monitor, **DETECTORS), \
            Session(seed=17, profile=level, resilience_config=config,
                    observability=observability) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e6))
        tmgr.add_pilots(pilot)
        runner = session.campaign_runner(tmgr)
        proc = session.engine.process(runner.run_campaign([campaign()]))
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="bag", cores_per_rank=1 + i % 4 * 4,
                            duration_s=(30.0 + 3.0 * (i % 5))
                            * (12.0 if i == 37 else 1.0))
            for i in range(60)], window=24, chunk_size=4)
        session.run(until=session.engine.all_of(
            [proc, tmgr.wait_tasks(tasks)]))
        session.quiesce()
        pmgr.cancel_pilots(list(pmgr._pilots.values()))
        session.run()
        obs = session.observability
        tracer, metrics, profiler = obs.tracer, obs.metrics, session.profiler
        with tempfile.TemporaryDirectory() as tmp:
            chrome = os.path.join(tmp, "trace.json")
            tracer.to_chrome_trace(chrome)
            chrome_sha = hashlib.sha256(Path(chrome).read_bytes()).hexdigest()
            profile = os.path.join(tmp, "profile.jsonl")
            profiler.to_jsonl(profile)
            with open(profile) as fh:
                profile_lines = [json.loads(line) for line in fh]
        histograms = [
            [h.name, [list(kv) for kv in h.labels], h.counts, h.count, h.sum]
            for h in metrics.instruments() if isinstance(h, Histogram)]
        return {
            "spans": [s.as_dict() for s in tracer.spans],
            "chrome_sha256": chrome_sha,
            "attribution": obs.attribution().report(),
            "series": [[name, [list(kv) for kv in labels], points]
                       for (name, labels), points in metrics.series.items()],
            "sample_times": metrics.sample_times,
            "histograms": histograms,
            "anomalies": [asdict(e) for e in obs.monitors.events],
            "profile": profile_lines,
            "profile_len": [len(profiler), profiler.dropped,
                            profiler.recorded],
            "task_states": [[t.uid, t.state, t.attempts] for t in tasks],
        }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("level", LEVELS)
def test_telemetry_reproduces_the_parent_transcript(golden, level):
    # through JSON, so that tuples and lists compare alike; floats
    # round-trip exactly
    got = json.loads(json.dumps(transcript(level)))
    want = golden[level]
    assert set(got) == set(want)
    for key in want:
        assert got[key] == want[key], key


def test_the_transcript_exercises_every_plane(golden):
    full = golden["full"]
    names = {span["name"] for span in full["spans"]}
    assert {"reschedule", "recovery", "transfer", "stage_in",
            "stage_out"} <= names
    assert any(span["attrs"].get("attempt", 1) >= 2 for span in full["spans"])
    assert {span["category"] for span in full["spans"]} == {
        "task", "data", "campaign", "campaign_node"}
    kinds = {a["kind"] for a in full["anomalies"]}
    assert {"straggler", "slo_burn"} <= kinds
    # the tracer reads the same spans off every profile level
    for level in LEVELS:
        assert golden[level]["spans"] == full["spans"]
        assert golden[level]["chrome_sha256"] == full["chrome_sha256"]


if __name__ == "__main__":
    blocks = []
    for level in LEVELS:                      # one span, row, ... a line
        fields = []
        for key, value in transcript(level).items():
            if isinstance(value, list):
                body = ",\n".join("   " + json.dumps(item) for item in value)
                fields.append(f'  "{key}": [\n{body}\n  ]')
            else:
                fields.append(f'  "{key}": {json.dumps(value)}')
        blocks.append(f' "{level}": {{\n' + ",\n".join(fields) + "\n }")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(blocks) + "\n}\n")
    print(f"wrote {GOLDEN}")
