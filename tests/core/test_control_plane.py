"""The control plane against a transcript recorded before it stopped pulling.

``data/parent_control_plane.json`` was written by running this file as a
script on the commit where the registry still spawned a process per
message, telemetry was read by a loop and every lease was a watchdog
generator.  The same scenario has to reproduce it exactly: registry state
and telemetry now change inside the landing's kernel entry instead of one
to three zero-delay entries later at the same simulated time, and nothing
here reads them at a tied timestamp.

``final_now`` alone was re-recorded since: it is the time of the last
genuine event (the last profile row, 120.955 s).  It used to be 124.765 s,
the next heartbeat of a stopped service instance, whose interval timeout
the stop left on the event queue for the final drain to run the clock up
to.  Stopping an instance now withdraws its armed beat.
"""

import json
from pathlib import Path

from repro import (
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    ServiceDescription,
    ServiceManager,
    Session,
)

GOLDEN = Path(__file__).parent / "data" / "parent_control_plane.json"


def transcript():
    """8 local + 1 remote service bootstrap, beat and report for 120 s;
    one crashes (its lease expires), one stops in order; quiesce, drain."""
    config = ResilienceConfig(heartbeat_interval_s=4.0, retry=None)
    with Session(seed=17, resilience_config=config) as session:
        engine = session.engine
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=16, runtime_s=1e6))
        local = smgr.start_services(
            [ServiceDescription(model="noop", gpus_per_rank=0,
                                heartbeat_interval_s=3.0 + 0.5 * i)
             for i in range(6)]
            + [ServiceDescription(model="llama-8b", heartbeat_interval_s=5.0)
               for _ in range(2)], pilot)
        remote = smgr.start_remote(
            ServiceDescription(model="noop", heartbeat_interval_s=2.5),
            platform="r3")
        handles = local + [remote]

        view = []

        def sampler():
            for _ in range(120):
                yield engine.timeout(1.0)
                view.append([engine.now, [
                    [info.name, info.load.t if info.load else None]
                    for info in smgr.registry.list_services()]])

        engine.process(sampler())
        session.run(until=60.0)
        assert smgr.crash_service(local[2])
        session.run(until=85.0)
        smgr.stop_services(local[4])
        session.run(until=120.0)
        rest = [h for h in handles if h not in (local[2], local[4])]
        assert all(h.is_ready for h in rest)
        smgr.stop_services(rest)
        session.run(until=smgr.wait_stopped(handles))
        session.batch_system(pilot.platform.name).complete(pilot.batch_job)
        session.quiesce()
        session.run()
        assert engine.peek() == float("inf")
        return {
            "rows": [[row.time, row.uid, row.event, row.component]
                     for row in session.profiler.events()],
            "registry_view": view,
            "detections": [[d.uid, d.last_beat_at, d.declared_at]
                           for d in session.resilience.monitor.detections],
            "states": [[h.uid, h.service_state] for h in handles],
            "final_now": session.now,
        }


def test_control_plane_reproduces_the_parent_transcript():
    golden = json.loads(GOLDEN.read_text())
    # through JSON, so that tuples and lists compare alike; floats
    # round-trip exactly
    got = json.loads(json.dumps(transcript()))
    assert got["detections"] == golden["detections"]
    assert len(got["detections"]) == 1
    assert got["states"] == golden["states"]
    assert got["registry_view"] == golden["registry_view"]
    assert got["rows"] == golden["rows"]
    assert got["final_now"] == golden["final_now"] == got["rows"][-1][0]


if __name__ == "__main__":
    record = transcript()
    final_now = record.pop("final_now")
    lines = ["{"]
    for key, items in record.items():         # one row, sample, ... a line
        body = ",\n".join("  " + json.dumps(item) for item in items)
        lines += [f' "{key}": [', body, " ],"]
    lines += [f' "final_now": {json.dumps(final_now)}', "}"]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")
