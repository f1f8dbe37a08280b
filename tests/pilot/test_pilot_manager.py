"""Tests for pilot lifecycle management."""

import pytest

from repro.pilot import PilotDescription, PilotManager, PilotState, Session


def free_nodes(batch):
    """How many nodes the batch system holds free (its runs' lengths)."""
    return sum(stop - start for start, stop in batch._free_runs)


@pytest.fixture
def session():
    with Session(seed=1) as s:
        yield s


@pytest.fixture
def pmgr(session):
    return PilotManager(session)


class TestPilotLifecycle:
    def test_pilot_becomes_active(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=3600))
        session.run(until=pilot.became_active)
        assert pilot.state == PilotState.PMGR_ACTIVE
        assert len(pilot.nodes) == 4
        assert pilot.agent is not None

    def test_pilot_nodes_have_platform_shape(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", gpus=16))
        session.run(until=pilot.became_active)
        assert pilot.nodes.total_free_gpus == 16
        assert pilot.nodes.total_free_cores == 4 * 64

    def test_activation_takes_bootstrap_time(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1))
        session.run(until=pilot.became_active)
        assert session.now > 0.5  # agent bootstrap cost was charged

    def test_walltime_expiry_fails_pilot(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1, runtime_s=60.0))
        session.run(until=pilot.finished)
        assert pilot.state == PilotState.FAILED
        assert session.now >= 60.0

    def test_cancel_active_pilot(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2))
        session.run(until=pilot.became_active)
        pmgr.cancel_pilots(pilot)
        session.run(until=pilot.finished)
        assert pilot.state == PilotState.CANCELED
        assert free_nodes(session.batch_system("delta")) == \
            session.platform("delta").nodes

    def test_preempted_pilot_releases_allocation(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e6))
        session.run(until=pilot.became_active)
        session.batch_system("delta").fail(pilot.batch_job)
        session.run(until=pilot.finished)
        assert pilot.state == PilotState.FAILED
        assert free_nodes(session.batch_system("delta")) == \
            session.platform("delta").nodes

    def test_cancel_pending_pilot(self, session, pmgr):
        spec = session.platform("delta")
        blocker = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=spec.nodes))
        (queued,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=spec.nodes))
        session.run(until=blocker[0].became_active)
        pmgr.cancel_pilots(queued)
        session.run(until=queued.finished)
        assert queued.state == PilotState.CANCELED
        assert not queued.became_active.ok

    def test_cancel_pilot_during_bring_up(self, session, pmgr):
        # the batch job already holds its nodes but has not started: the
        # cancel must neither raise nor leak them
        batch = session.batch_system("delta")
        free = free_nodes(batch)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2))
        assert free_nodes(batch) == free - 2
        pmgr.cancel_pilots(pilot)
        session.run(until=pilot.finished)
        assert pilot.state == PilotState.CANCELED
        assert not pilot.became_active.ok
        assert free_nodes(batch) == free
        session.run()
        assert session.engine.peek() == float("inf")

    @pytest.mark.parametrize("end, final", [
        ("cancel", PilotState.CANCELED),
        ("preempt", PilotState.FAILED),
        ("walltime", PilotState.FAILED),
    ])
    def test_a_job_ending_while_the_agent_boots_ends_the_pilot_on_activation(
            self, session, pmgr, end, final):
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource="delta", nodes=1,
            runtime_s=0.05 if end == "walltime" else 3600.0))
        job = pilot.batch_job
        session.run(until=job.started)
        if end == "cancel":
            pmgr.cancel_pilots(pilot)
        elif end == "preempt":
            session.batch_system("delta").fail(job)
        session.run(until=job.finished)
        assert pilot.state == PilotState.PMGR_LAUNCHING    # still booting
        seen, fired = [], []
        pilot.on_state(lambda p, state: seen.append((session.now, state)))
        pilot.became_active.callbacks.append(fired.append)
        session.run(until=pilot.finished)
        t_up = seen[0][0]
        assert seen == [(t_up, PilotState.PMGR_ACTIVE), (t_up, final)]
        assert fired == [pilot.became_active] and pilot.became_active.ok

    def test_multiple_pilots_on_different_platforms(self, session, pmgr):
        pilots = pmgr.submit_pilots([
            PilotDescription(resource="delta", nodes=1),
            PilotDescription(resource="frontier", nodes=2),
        ])
        session.run(until=pmgr.wait_active(pilots))
        assert all(p.is_active for p in pilots)
        assert pilots[1].nodes.total_free_gpus == 16

    def test_nodes_come_with_activation(self, session, pmgr):
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=1))
        assert pilot.nodes is None
        session.run(until=pilot.became_active)
        assert pilot.nodes.total_free_cores == 64
        assert pilot.nodes.total_free_gpus == 4
