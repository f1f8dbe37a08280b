"""The service paths the control-plane golden misses, against a transcript
recorded before the service driver process became landings.

``data/parent_service_lifecycle.json`` was written by running this file as
a script on the commit where each service still had a driver process.
It covers a startup timeout landing in each bootstrap phase -- the grant
wait, the launch, the model load and the publication -- an orderly stop
that drains admitted requests, an autoscaler scale-down and a remote
service's stop.  The same scenario has to reproduce it exactly.

``final_now`` is not recorded: the process interrupted in its launch or
model load left that timer on the event queue, and the final drain ran
the clock up to it; a bootstrap that ends now withdraws its timer.

The publication's timeout lands after the registry applied the
registration, while its reply is on the wire.  One landing earlier, the
process left the endpoint registered for good (nothing deregistered it
once the reply came); that path is pinned by
``test_service_lifecycle.py`` instead.

The last row was re-recorded: the run ends its pilot the way the runtime
ends one, by cancelling it (``state:CANCELED``); it used to end it through
a batch-side ``complete`` (``state:DONE``) that nothing else called.
"""

import json
from pathlib import Path

from repro import (
    Autoscaler,
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
    Session,
)

GOLDEN = Path(__file__).parent / "data" / "parent_service_lifecycle.json"

#: startup timeouts (from ``start_services``) landing in each phase of
#: their service's bootstrap: the grant wait, the launch, the model load
#: and the registry reply's flight
TIMEOUTS = {"grant": 8.0, "launch": 3.5, "init": 12.0,
            "publish": 6.00709}


def transcript(timeouts=TIMEOUTS):
    """11 local + 1 remote service; 4 time out in bootstrap, one drains
    admitted requests, an autoscaler scales one down, the remote one
    stops; then everything stops, quiesce, drain."""
    config = ResilienceConfig(heartbeat_interval_s=4.0, retry=None)
    with Session(seed=23, resilience_config=config) as session:
        engine = session.engine
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=16, runtime_s=1e6))
        big = [ServiceDescription(model="llama-8b", gpus_per_rank=4,
                                  heartbeat_interval_s=5.0)
               for _ in range(3)]
        doomed = {
            "init": ServiceDescription(
                model="llama-8b", startup_timeout_s=timeouts["init"]),
            "grant": ServiceDescription(
                model="llama-8b", gpus_per_rank=4,
                startup_timeout_s=timeouts["grant"]),
            "launch": ServiceDescription(
                model="noop", gpus_per_rank=0,
                startup_timeout_s=timeouts["launch"]),
            "publish": ServiceDescription(
                model="noop", gpus_per_rank=0,
                startup_timeout_s=timeouts["publish"]),
        }
        scaled = [ServiceDescription(model="noop", gpus_per_rank=0,
                                     heartbeat_interval_s=3.0)
                  for _ in range(2)]
        local = smgr.start_services(big + list(doomed.values()) + scaled,
                                    pilot)
        drained, failing, group = local[0], local[3:7], local[7:]
        remote = smgr.start_remote(
            ServiceDescription(model="noop", heartbeat_interval_s=2.5),
            platform="r3")
        handles = local + [remote]
        # a pilot-backed autoscaler that adopts the group before it starts
        scaler = Autoscaler(smgr, scaled[0], pilot)
        scaler.handles += group
        scaler.start()

        view = []

        def sampler():
            for _ in range(150):
                yield engine.timeout(1.0)
                view.append([engine.now, [
                    [info.name, info.load.t if info.load else None]
                    for info in smgr.registry.list_services()]])

        engine.process(sampler())
        session.run(until=drained.ready)
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(4)]
        for client in clients:
            engine.process(client.infer(drained.address, "drain me",
                                        params={"max_tokens": 64}))
        session.run(until=session.now + 0.5)
        assert len(drained.instance._queue) + drained.instance._in_flight \
            == len(clients)
        smgr.stop_services(drained)
        session.run(until=70.0)
        smgr.stop_services(remote)
        session.run(until=120.0)
        assert scaler.scale_events and scaler.scale_events[0][1] == "down"
        scaler.stop()
        rest = [h for h in handles
                if h.service_state not in ("STOPPED", "FAILED")]
        smgr.stop_services(rest)
        session.run(until=smgr.wait_stopped(handles))
        pmgr.cancel_pilots(pilot)
        session.quiesce()
        session.run()
        assert engine.peek() == float("inf")
        rows = [[row.time, row.uid, row.event, row.component]
                for row in session.profiler.events()]
        if timeouts is TIMEOUTS:
            assert all(h.service_state == "FAILED" for h in failing)
        return {
            "rows": rows,
            "registry_view": view,
            "detections": [[d.uid, d.last_beat_at, d.declared_at]
                           for d in session.resilience.monitor.detections],
            "states": [[h.uid, h.service_state, h.task.state]
                       for h in handles],
            "replies": [[r.service_uid, r.ok, r.completed_at]
                        for c in clients for r in c.results],
            "scale_events": scaler.scale_events,
        }


def test_service_paths_reproduce_the_parent_transcript():
    golden = json.loads(GOLDEN.read_text())
    # through JSON, so that tuples and lists compare alike; floats
    # round-trip exactly
    got = json.loads(json.dumps(transcript()))
    for key in ("states", "replies", "scale_events", "detections",
                "registry_view", "rows"):
        assert got[key] == golden[key], key


if __name__ == "__main__":
    record = transcript()
    lines = ["{"]
    for key, items in record.items():         # one row, sample, ... a line
        body = ",\n".join("  " + json.dumps(item) for item in items)
        lines += [f' "{key}": [', body, " ],"]
    lines[-1] = lines[-1].rstrip(",")
    lines.append("}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(f"wrote {GOLDEN}")
