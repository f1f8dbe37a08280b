"""Tests for the Slurm-like batch system."""

import pytest

from repro.hpc import BatchSystem, JobState, LatencySpec, PlatformSpec
from repro.sim import RngHub, SimulationEngine
from repro.utils import IdRegistry


def free_nodes(batch):
    """How many nodes the batch system holds free (its runs' lengths)."""
    return sum(stop - start for start, stop in batch._free_runs)


def make_spec(nodes=8, queue_wait=0.0):
    return PlatformSpec(
        name="testmachine", nodes=nodes, cores_per_node=4, gpus_per_node=2,
        mem_per_node_gb=32.0, intra_latency=LatencySpec(0.05, 0.01),
        queue_wait_scale_s=queue_wait)


@pytest.fixture
def engine():
    return SimulationEngine()


@pytest.fixture
def batch(engine):
    return BatchSystem(engine, make_spec(), RngHub(0).stream("batch"),
                       IdRegistry())


class TestSubmission:
    def test_job_starts_when_nodes_free(self, engine, batch):
        job = batch.submit(n_nodes=4, walltime_s=100.0)
        assert job.uid == "job.0000"          # from the registry it was given
        nodes = engine.run(until=job.started)
        assert job.state == JobState.RUNNING
        assert len(nodes) == 4
        assert free_nodes(batch) == 4

    def test_oversized_request_rejected(self, batch):
        with pytest.raises(ValueError, match="only"):
            batch.submit(n_nodes=9, walltime_s=10.0)

    def test_invalid_args_rejected(self, batch):
        with pytest.raises(ValueError):
            batch.submit(n_nodes=0, walltime_s=10.0)
        with pytest.raises(ValueError):
            batch.submit(n_nodes=1, walltime_s=0.0)

    def test_fifo_queueing(self, engine, batch):
        first = batch.submit(n_nodes=8, walltime_s=50.0)
        second = batch.submit(n_nodes=8, walltime_s=50.0)
        engine.run(until=first.started)
        assert second.state == JobState.PENDING
        batch.cancel(first)
        engine.run(until=second.started)
        assert second.started_at == engine.now

    def test_a_job_gets_the_lowest_free_indices_after_releases(
            self, engine, batch):
        # as sorting the free set did: runs freed out of order merge back
        jobs = [batch.submit(n_nodes=n, walltime_s=100.0) for n in (2, 3, 2)]
        engine.run(until=jobs[-1].started)
        assert [j.node_indices for j in jobs] == [[0, 1], [2, 3, 4], [5, 6]]
        batch.cancel(jobs[1])
        batch.cancel(jobs[0])
        assert batch._free_runs == [(0, 5), (7, 8)] and free_nodes(batch) == 6
        wide = batch.submit(n_nodes=6, walltime_s=100.0)
        engine.run(until=wide.started)
        assert wide.node_indices == [0, 1, 2, 3, 4, 7]
        assert batch._free_runs == [] and free_nodes(batch) == 0
        batch.cancel(jobs[2])
        narrow = batch.submit(n_nodes=1, walltime_s=100.0)
        engine.run(until=narrow.started)
        assert narrow.node_indices == [5]
        assert batch._free_runs == [(6, 7)]

    def test_node_indices_disjoint_across_jobs(self, engine, batch):
        j1 = batch.submit(n_nodes=3, walltime_s=100.0)
        j2 = batch.submit(n_nodes=3, walltime_s=100.0)
        engine.run(until=j2.started)
        assert not set(j1.node_indices) & set(j2.node_indices)


class TestCompletionAndWalltime:
    def test_walltime_enforced(self, engine, batch):
        job = batch.submit(n_nodes=2, walltime_s=60.0)
        state = engine.run(until=job.finished)
        assert state == JobState.TIMEOUT
        assert engine.now == pytest.approx(60.0)
        assert free_nodes(batch) == 8

    def test_fail_releases_nodes(self, engine, batch):
        job = batch.submit(n_nodes=8, walltime_s=1000.0)
        engine.run(until=job.started)
        batch.fail(job)
        assert job.state == JobState.FAILED
        assert free_nodes(batch) == 8
        assert engine.run(until=job.finished) == JobState.FAILED
        engine.run()
        assert engine.now < 1000.0  # the walltime timer was withdrawn

    def test_fail_non_running_raises(self, engine, batch):
        blocker = batch.submit(n_nodes=8, walltime_s=60.0)
        queued = batch.submit(n_nodes=2, walltime_s=60.0)
        engine.run(until=blocker.started)
        with pytest.raises(RuntimeError, match="PENDING"):
            batch.fail(queued)  # a user cancels a queued job; none fails it
        batch.fail(blocker)
        with pytest.raises(RuntimeError, match="FAILED"):
            batch.fail(blocker)

    def test_cancel_pending_job(self, engine, batch):
        blocker = batch.submit(n_nodes=8, walltime_s=100.0)
        queued = batch.submit(n_nodes=8, walltime_s=100.0)
        engine.run(until=blocker.started)
        batch.cancel(queued)
        assert queued.state == JobState.CANCELLED
        assert len(batch._queue) == 0

    def test_cancel_running_job(self, engine, batch):
        job = batch.submit(n_nodes=4, walltime_s=100.0)
        engine.run(until=job.started)
        batch.cancel(job)
        assert job.state == JobState.CANCELLED
        assert free_nodes(batch) == 8
        engine.run()
        assert engine.now < 100.0  # the walltime timer was withdrawn

    @pytest.mark.parametrize("ran_for", [None, 0.5])
    def test_cancel_during_bring_up_returns_the_nodes(self, engine, ran_for):
        # the job left the queue and took its nodes, but stays PENDING
        # until the sampled queue-wait delay has elapsed
        spec = make_spec(nodes=4, queue_wait=50.0)
        batch = BatchSystem(engine, spec, RngHub(7).stream("b"),
                            IdRegistry())
        job = batch.submit(n_nodes=3, walltime_s=100.0)
        waiting = batch.submit(n_nodes=2, walltime_s=100.0)
        if ran_for is not None:  # else: before the bring-up even started
            engine.run(until=ran_for)
        assert job.state == JobState.PENDING and free_nodes(batch) == 1
        cancelled_at = engine.now
        batch.cancel(job)
        assert job.state == JobState.CANCELLED
        assert len(batch._queue) == 0  # the freed nodes started `waiting`
        assert engine.run(until=job.finished) == JobState.CANCELLED
        engine.run(until=waiting.started)
        batch.cancel(waiting)
        engine.run()
        assert not job.started.triggered and job.started_at is None
        assert job.finished_at == cancelled_at
        assert free_nodes(batch) == 4
        # neither the abandoned delay nor a walltime dragged the clock on
        assert engine.now == waiting.started_at

    def test_cancel_final_job_is_idempotent(self, engine, batch):
        job = batch.submit(n_nodes=4, walltime_s=10.0)
        engine.run(until=job.finished)
        batch.cancel(job)  # no raise
        assert job.state == JobState.TIMEOUT


class TestBackfill:
    def test_backfill_lets_small_job_jump(self, engine):
        batch = BatchSystem(engine, make_spec(nodes=8),
                            RngHub(0).stream("b"), IdRegistry())
        running = batch.submit(n_nodes=6, walltime_s=100.0)
        big = batch.submit(n_nodes=8, walltime_s=10.0)     # head, cannot fit
        small = batch.submit(n_nodes=2, walltime_s=10.0)   # fits now
        engine.run(until=small.started)
        assert small.state == JobState.RUNNING
        assert big.state == JobState.PENDING
        assert running.state == JobState.RUNNING

    def test_queue_wait_noise_applied(self, engine):
        spec = make_spec(nodes=4, queue_wait=5.0)
        batch = BatchSystem(engine, spec, RngHub(7).stream("b"),
                            IdRegistry())
        job = batch.submit(n_nodes=1, walltime_s=100.0)
        engine.run(until=job.started)
        assert job.started_at > 0.0
