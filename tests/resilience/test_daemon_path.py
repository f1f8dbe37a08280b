"""What a keep-alive costs: no process, one kernel entry per tick.

Pilot heartbeats, the node-fault records of a pilot, the metrics sampler
and the dashboard are re-armed timer records, and a pilot's lifecycle and
its batch job's bring-up are callbacks and timers.  Arming a pilot resumes
no generator whatever its node count, a tick is the timer's own kernel
entry (a beat's bus landings are counted apart from it), and
``quiesce()`` stops every daemon in the call.
"""

from repro import ObservabilityConfig
from repro.pilot import PilotDescription, PilotManager, Session
from repro.resilience import FaultModel, ResilienceConfig
from repro.sim.events import Process

NODE_KINDS = ("node_crash", "node_degraded", "node_repair")


def watched_session(seed=3):
    return Session(
        seed=seed,
        resilience_config=ResilienceConfig(
            heartbeat_interval_s=5.0, retry=None,
            faults=FaultModel(node_mtbf_s=200.0, node_mttr_s=30.0,
                              degraded_fraction=0.5)),
        observability=ObservabilityConfig(
            tracing=False, monitors=False, sample_interval_s=5.0,
            dashboard=True, dashboard_interval_s=10.0))


def resumes_by_arming(nodes):
    """Generator resumes from pilot submission to 100 s after activation,
    and the daemons armed meanwhile."""
    with watched_session() as session:
        pmgr = PilotManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=nodes, runtime_s=1e9))
        session.run(until=pmgr.wait_active([pilot]))
        session.run(until=session.now + 100.0)
        return session.engine.resumes, list(session._daemons)


def test_arming_a_pilot_creates_no_process():
    few, few_daemons = resumes_by_arming(8)
    many, many_daemons = resumes_by_arming(16)
    # nothing runs a generator: not the daemons, not the pilot's lifecycle,
    # not its batch job's bring-up
    assert few == many == 0
    assert len(many_daemons) - len(few_daemons) == 8
    for daemon in few_daemons + many_daemons:
        assert not isinstance(daemon, Process), daemon


def test_a_tick_is_one_kernel_entry_and_resumes_nothing():
    with watched_session() as session:
        engine, bus = session.engine, session.bus
        injector = session.resilience.injector
        obs = session.observability
        pmgr = PilotManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=8, runtime_s=1e9))
        session.run(until=pmgr.wait_active([pilot]))
        session.run(until=session.now + 1.0)   # every record has started

        lease = session.resilience.monitor.lease(pilot.uid)
        entries, resumes = engine.entries, engine.resumes
        faults = len(injector.records)
        samples = len(obs.metrics.sample_times)
        snapshots = len(obs.dashboard.snapshots)
        sent, landed = bus.sent_count, lease.beats
        session.run(until=session.now + 400.0)

        node_ticks = sum(1 for r in injector.records[faults:]
                         if r.kind in NODE_KINDS)
        beats = bus.sent_count - sent          # one subscriber: the lease
        landed = lease.beats - landed
        samples = len(obs.metrics.sample_times) - samples
        snapshots = len(obs.dashboard.snapshots) - snapshots
        assert node_ticks > 0 and beats == 80 and samples == 80
        assert snapshots == 40
        assert engine.resumes == resumes
        # one entry per tick; a beat adds its delivery, and each landed beat
        # re-arms its lease once (the last beat may still be on the wire)
        assert engine.entries - entries \
            == node_ticks + beats + samples + snapshots + beats + landed
        assert beats - 1 <= landed <= beats


def test_quiesce_stops_every_daemon_in_the_call():
    with watched_session() as session:
        pmgr = PilotManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e9))
        session.run(until=pmgr.wait_active([pilot]))
        session.run(until=session.now + 50.0)
        daemons = list(session._daemons)
        assert daemons and all(d.is_alive for d in daemons)
        t_quiesce = session.now
        session.quiesce()
        assert not any(d.is_alive for d in daemons)   # no run in between
        pmgr.cancel_pilots(pilot)
        session.run()
        assert session.engine.peek() == float("inf")
        # one final sample and snapshot, at the quiesce time
        obs = session.observability
        times = obs.metrics.sample_times
        assert times[-1] == t_quiesce and times[-2] < t_quiesce
        assert f"t={t_quiesce:.1f}s" in obs.dashboard.snapshots[-1]
