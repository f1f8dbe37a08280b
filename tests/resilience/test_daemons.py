"""Every keep-alive at once, against a transcript recorded before they became
records.

``data/parent_daemons.json`` was written by running this file as a script on
the commit where pilot heartbeats, the node-fault / preemption / link-flap /
service-crash injectors, the metrics sampler, the dashboard, the autoscaler
and the service heartbeats were each a generator process waiting on a
clock.  The same scenario has to reproduce it exactly: the fault injector's
records, the lease declarations, every profile row, metric series and
dashboard snapshot, the autoscaler's actions and every final state.

One exception: ``final_now``.  A stopped service instance and a stopped
autoscaler used to leave their next interval timeout on the event queue,
so the final drain ran the clock up to that abandoned tick (the recorded
287.0 s is the autoscaler's).  Stopping now withdraws the armed tick, and
the drain ends at the last genuine event, the last profile row.
"""

import json
from pathlib import Path
from unittest.mock import patch

from repro import (
    FaultModel,
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.core import autoscaler
from repro.resilience import PilotResubmitPolicy, RetryPolicy

GOLDEN = Path(__file__).parent / "data" / "parent_daemons.json"

#: the autoscaler policy the transcript was recorded under (the low mark is
#: a quarter of the target, as the recording's policy object derived it)
POLICY = dict(TARGET_QUEUE_DELAY_S=1.0, LOW_QUEUE_DELAY_S=0.25,
              INTERVAL_S=7.0, MIN_INSTANCES=1, MAX_INSTANCES=3, UP_TICKS=1,
              DOWN_TICKS=3)


def transcript():
    """A 4-node pilot under every fault kind (and a resubmission budget),
    30 staged tasks, an autoscaled remote service group under a client
    burst, metrics and the dashboard on; stop, quiesce, cancel, drain."""
    faults = FaultModel(node_mtbf_s=500.0, node_mttr_s=40.0,
                        degraded_fraction=0.5, pilot_preempt_mtbf_s=1500.0,
                        link_flap_mtbf_s=30.0, transfer_corrupt_prob=0.1,
                        service_crash_mtbf_s=250.0)
    config = ResilienceConfig(
        heartbeat_interval_s=5.0,
        retry=RetryPolicy(max_retries=6, backoff_base_s=1.0),
        pilot_resubmit=PilotResubmitPolicy(max_resubmits=2),
        faults=faults)
    observability = ObservabilityConfig(sample_interval_s=25.0,
                                        dashboard=True,
                                        dashboard_interval_s=150.0)
    with patch.multiple(autoscaler, **POLICY), \
            Session(seed=23, resilience_config=config,
                    observability=observability) as session:
        engine = session.engine
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e6))
        tmgr.add_pilots(pilot)
        scaler = smgr.start_autoscaler(
            ServiceDescription(model="llama-8b", backend="ollama",
                               heartbeat_interval_s=3.0),
            remote_platform="r3")
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", cores_per_rank=8,
                            duration_s=80.0 + 5.0 * (i % 7),
                            input_staging=[{"source": f"data-{i % 9}",
                                            "size_bytes": 3e9}])
            for i in range(30)])
        session.run(until=smgr.wait_ready(scaler.handles))
        clients = [ServiceClient(session, platform="delta", timeout_s=60.0)
                   for _ in range(6)]

        def burst(client):
            yield from client.run_workload(
                lambda: [info.address
                         for info in smgr.registry.list_services()],
                25, prompt="burst", params={"max_tokens": 32})

        bursts = [engine.process(burst(c)) for c in clients]
        session.run(until=engine.all_of(bursts))
        session.run(until=tmgr.wait_tasks(tasks))
        scaler.stop()
        smgr.stop_services(scaler.all_handles)
        session.run(until=smgr.wait_stopped(scaler.all_handles))
        session.quiesce()
        pmgr.cancel_pilots(pmgr.pilots)
        session.run()
        assert engine.peek() == float("inf")
        obs = session.observability
        injector = session.resilience.injector
        return {
            "faults": [[r.kind, r.target, r.at, r.detail]
                       for r in injector.records],
            "detections": [[d.uid, d.last_beat_at, d.declared_at]
                           for d in session.resilience.monitor.detections],
            "rows": [[row.time, row.uid, row.event, row.component]
                     for row in session.profiler.events()],
            "series": [[name, [list(kv) for kv in labels], points]
                       for (name, labels), points
                       in obs.metrics.series.items()],
            "sample_times": obs.metrics.sample_times,
            "snapshots": obs.dashboard.snapshots,
            "scale_events": scaler.scale_events,
            "count_trace": scaler.count_trace,
            "task_states": [[t.uid, t.state] for t in tasks],
            "service_states": [[h.uid, h.service_state]
                               for h in scaler.all_handles],
            "pilot_states": [[p.uid, p.state] for p in pmgr.pilots],
            "final_now": session.now,
        }


def test_daemons_reproduce_the_parent_transcript():
    golden = json.loads(GOLDEN.read_text())
    # through JSON, so that tuples and lists compare alike; floats
    # round-trip exactly
    got = json.loads(json.dumps(transcript()))
    final_now = got.pop("final_now")
    recorded_final_now = golden.pop("final_now")
    assert set(got) == set(golden)
    for key in golden:
        assert got[key] == golden[key], key
    # every kind of keep-alive acted in the scenario
    kinds = {kind for kind, *_ in golden["faults"]}
    assert {"node_crash", "node_degraded", "node_repair", "pilot_preempt",
            "link_flap", "transfer_corrupt", "service_crash"} <= kinds
    assert golden["detections"] and golden["scale_events"]
    assert golden["snapshots"] and golden["sample_times"]
    # the drain ends at the last genuine event, not at an abandoned tick
    assert final_now == max(row[0] for row in got["rows"])
    assert final_now < recorded_final_now


if __name__ == "__main__":
    record = transcript()
    final_now = record.pop("final_now")
    lines = ["{"]
    for key, items in record.items():         # one row, series, ... a line
        body = ",\n".join("  " + json.dumps(item) for item in items)
        lines += [f' "{key}": [', body, " ],"]
    lines += [f' "final_now": {json.dumps(final_now)}', "}"]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")
