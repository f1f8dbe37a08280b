"""Slurm-like batch system: node allocation for pilot jobs.

Pilots (:mod:`repro.pilot`) acquire resources by submitting *batch jobs*
that request whole nodes for a walltime.  This module models the machine's
batch scheduler: a FIFO queue with backfill, per-job queue-wait noise,
walltime enforcement and early release.

The model is deliberately simple -- the paper's experiments run inside a
single pilot allocation, so what matters is that (a) allocation consumes the
platform's finite nodes, (b) pilots see a realistic queue wait, and
(c) walltimes are enforced.  Backfill is the non-reserving "EASY-lite"
variant: when the queue head does not fit, any later job that fits the
current free set may start.  This can delay the head (no reservation); the
simplification is documented and tested.

A job holding nodes has one armed timer and no process: first the
queue-resident delay, whose entry hands the nodes over, then the walltime.
Ending the job any other way withdraws it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..sim.engine import SimulationEngine
from ..sim.events import NORMAL, URGENT, Deferred, Event
from ..utils.ids import IdRegistry
from .platform import PlatformSpec

__all__ = ["JobState", "BatchJob", "BatchSystem"]


class JobState:
    """Lifecycle states for a batch job."""

    PENDING = "PENDING"
    RUNNING = "RUNNING"
    TIMEOUT = "TIMEOUT"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"        # preempted / system fault, not user-initiated

    FINAL = (TIMEOUT, CANCELLED, FAILED)


class BatchJob:
    """One node-level allocation request and its lifecycle."""

    def __init__(self, engine: SimulationEngine, uid: str, n_nodes: int,
                 walltime_s: float) -> None:
        self.uid = uid
        self.n_nodes = n_nodes
        self.walltime_s = walltime_s
        self.state = JobState.PENDING
        self.node_indices: List[int] = []
        self.submitted_at: Optional[float] = None
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: triggers with the node index list when the allocation begins
        self.started: Event = engine.event()
        #: triggers with the final state string when the job ends
        self.finished: Event = engine.event()

    @property
    def is_final(self) -> bool:
        return self.state in JobState.FINAL

    def __repr__(self) -> str:
        return (f"<BatchJob {self.uid} {self.state} nodes={self.n_nodes} "
                f"wall={self.walltime_s}s>")


class BatchSystem:
    """The platform's batch scheduler (one per platform instance)."""

    def __init__(self, engine: SimulationEngine, spec: PlatformSpec, rng,
                 ids: IdRegistry) -> None:
        self.engine = engine
        self.spec = spec
        self.rng = rng
        #: names the jobs (the session's: same seed, same uids)
        self.ids = ids
        #: free node indices as sorted, disjoint ``(start, stop)`` runs
        self._free_runs: List[Tuple[int, int]] = [(0, spec.nodes)]
        self._queue: List[BatchJob] = []
        #: job holding nodes -> its armed timer (bring-up, then walltime)
        self._running: Dict[BatchJob, Deferred] = {}

    # -- public API --------------------------------------------------------------

    def submit(self, n_nodes: int, walltime_s: float) -> BatchJob:
        """Enqueue an allocation request; returns the job handle."""
        if n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if n_nodes > self.spec.nodes:
            raise ValueError(
                f"requested {n_nodes} nodes but {self.spec.name} has only "
                f"{self.spec.nodes}")
        if walltime_s <= 0:
            raise ValueError("walltime must be positive")
        job = BatchJob(self.engine, self.ids.generate("job"), n_nodes,
                       walltime_s)
        job.submitted_at = self.engine.now
        self._queue.append(job)
        self._schedule_pass()
        return job

    def fail(self, job: BatchJob) -> None:
        """Kill a running job from the system side (preemption, HW fault).

        Unlike :meth:`cancel` this is not a user action: the job finishes
        ``FAILED``, which pilot managers map to a failed (and therefore
        recoverable/resubmittable) pilot rather than a cancelled one.
        """
        if job.state != JobState.RUNNING:
            raise RuntimeError(f"cannot fail job in state {job.state}")
        self._finish(job, JobState.FAILED)

    def cancel(self, job: BatchJob) -> None:
        """Cancel a pending or running job."""
        if job in self._running:
            # running, or still pending but already holding its nodes
            # (the queue-wait delay of _start has not elapsed yet)
            self._finish(job, JobState.CANCELLED)
        elif job.state == JobState.PENDING:
            self._queue.remove(job)
            job.state = JobState.CANCELLED
            job.finished_at = self.engine.now
            job.finished.succeed(JobState.CANCELLED)
        elif job.is_final:
            pass  # idempotent
        else:  # pragma: no cover - defensive
            raise RuntimeError(f"cannot cancel job in state {job.state}")

    # -- scheduling --------------------------------------------------------------
    def _schedule_pass(self) -> None:
        """Start every job that fits right now, in queue order (backfill:
        a later job that fits starts while the head waits)."""
        for job in list(self._queue):  # a start only shrinks the free set
            if job.n_nodes <= sum(b - a for a, b in self._free_runs):
                self._queue.remove(job)
                self._start(job)

    def _start(self, job: BatchJob) -> None:
        # Sample a queue-resident delay (system noise) before nodes hand over.
        delay = 0.0
        if self.spec.queue_wait_scale_s > 0:
            delay = float(self.rng.exponential(self.spec.queue_wait_scale_s))
        nodes: List[int] = []  # the lowest free indices
        while len(nodes) < job.n_nodes:
            start, stop = self._free_runs.pop(0)
            nodes.extend(range(start, stop)[:job.n_nodes - len(nodes)])
            if nodes[-1] + 1 < stop:
                self._free_runs.insert(0, (nodes[-1] + 1, stop))
        job.node_indices = nodes
        # an immediate hand-over precedes whatever else is due now
        self._running[job] = self.engine.call_later(
            delay, self._bring_up, job, priority=NORMAL if delay else URGENT)

    def _bring_up(self, job: BatchJob) -> None:
        """The queue-resident delay is over: hand over, arm the walltime."""
        job.state = JobState.RUNNING
        job.started_at = self.engine.now
        job.started.succeed(list(job.node_indices))
        self._running[job] = self.engine.call_later(job.walltime_s,
                                                    self._expire, job)

    def _expire(self, job: BatchJob) -> None:
        del self._running[job]  # fired: nothing left to withdraw
        self._finish(job, JobState.TIMEOUT)

    def _finish(self, job: BatchJob, final_state: str) -> None:
        job.state = final_state
        job.finished_at = self.engine.now
        runs: List[Tuple[int, int]] = []  # adjacent runs merged
        for start, stop in sorted(self._free_runs + [
                (node, node + 1) for node in job.node_indices]):
            if runs and start == runs[-1][1]:
                runs[-1] = (runs[-1][0], stop)
            else:
                runs.append((start, stop))
        self._free_runs = runs
        timer = self._running.pop(job, None)
        if timer is not None:
            timer.cancel()  # keep the event heap (and the clock) clean
        job.finished.succeed(final_state)
        self._schedule_pass()
