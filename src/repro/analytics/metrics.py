"""Metric extraction: the paper's BT / RT / IT decompositions.

§IV defines three metrics:

* **Bootstrap Time (BT)** -- time for services to become available, split
  into ``launch`` (placing the service executable), ``init`` (loading and
  initialising the model) and ``publish`` (communicating the endpoint);
* **Response Time (RT)** -- time for a service to acknowledge a request,
  split into ``communication``, ``service`` (queue/parse/serialise) and
  ``inference``;
* **Inference Time (IT)** -- the inference component alone.

BT components come from profiler events recorded by the ServiceManager;
RT/IT come from the per-request :class:`~repro.core.client.InferenceResult`
records.  Everything is vectorised with numpy (means, stds, percentiles,
tails), since the paper reports distributions "across multiple task,
service, and model instances".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

import numpy as np

from ..core.client import InferenceResult
from ..pilot.profiler import Profiler

__all__ = [
    "DistStats",
    "dist_stats",
    "BootstrapMetrics",
    "bootstrap_metrics",
    "ResponseMetrics",
    "response_metrics",
    "DataMetrics",
    "data_metrics",
    "FailureMetrics",
    "failure_metrics",
    "CampaignMetrics",
    "campaign_metrics",
]


@dataclass(frozen=True)
class DistStats:
    """Summary statistics of one duration distribution (seconds)."""

    n: int
    mean: float
    std: float
    p50: float
    p95: float
    min: float
    max: float

    def __str__(self) -> str:
        return (f"n={self.n} mean={self.mean:.4g}s std={self.std:.3g} "
                f"p50={self.p50:.4g} p95={self.p95:.4g}")


def dist_stats(values: Sequence[float]) -> DistStats:
    """Compute :class:`DistStats` (empty input yields NaNs, n=0).

    The mean and percentiles are clamped into ``[min, max]``: floating-point
    summation can push ``arr.mean()`` (and interpolated percentiles) a few
    ULPs outside the data range, which breaks the ``min <= mean <= max``
    invariant downstream consumers rely on.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        nan = float("nan")
        return DistStats(0, nan, nan, nan, nan, nan, nan)
    lo, hi = float(arr.min()), float(arr.max())

    def clamp(x: float) -> float:
        return min(max(float(x), lo), hi)

    return DistStats(
        n=int(arr.size),
        mean=clamp(arr.mean()),
        std=float(arr.std()),
        p50=clamp(np.percentile(arr, 50)),
        p95=clamp(np.percentile(arr, 95)),
        min=lo,
        max=hi,
    )


@dataclass
class BootstrapMetrics:
    """Per-service BT component arrays plus their stats (Experiment 1)."""

    uids: List[str]
    launch: np.ndarray
    init: np.ndarray
    publish: np.ndarray
    total: np.ndarray

    @property
    def launch_stats(self) -> DistStats:
        return dist_stats(self.launch)

    @property
    def init_stats(self) -> DistStats:
        return dist_stats(self.init)

    @property
    def publish_stats(self) -> DistStats:
        return dist_stats(self.publish)

    @property
    def total_stats(self) -> DistStats:
        return dist_stats(self.total)

    def component_means(self) -> Dict[str, float]:
        return {
            "launch": float(self.launch.mean()) if self.launch.size else float("nan"),
            "init": float(self.init.mean()) if self.init.size else float("nan"),
            "publish": float(self.publish.mean()) if self.publish.size else float("nan"),
        }


def bootstrap_metrics(profiler: Profiler,
                      uids: Iterable[str]) -> BootstrapMetrics:
    """Extract BT components for the given service uids."""
    uids = list(uids)
    launch = profiler.durations(uids, "launch_start", "launch_stop")
    init = profiler.durations(uids, "init_start", "init_stop")
    publish = profiler.durations(uids, "publish_start", "publish_stop")
    total = profiler.durations(uids, "bootstrap_start", "bootstrap_stop")
    return BootstrapMetrics(uids=uids, launch=launch, init=init,
                            publish=publish, total=total)


@dataclass
class ResponseMetrics:
    """Per-request RT component arrays plus stats (Experiments 2-3)."""

    response_time: np.ndarray
    communication: np.ndarray
    service: np.ndarray
    inference: np.ndarray
    queue: np.ndarray
    n_requests: int = field(init=False)

    def __post_init__(self) -> None:
        self.n_requests = int(self.response_time.size)

    @property
    def rt_stats(self) -> DistStats:
        return dist_stats(self.response_time)

    @property
    def communication_stats(self) -> DistStats:
        return dist_stats(self.communication)

    @property
    def service_stats(self) -> DistStats:
        return dist_stats(self.service)

    @property
    def inference_stats(self) -> DistStats:
        return dist_stats(self.inference)

    @property
    def queue_stats(self) -> DistStats:
        return dist_stats(self.queue)

    def dominant_component(self) -> str:
        """Which component contributes most to mean RT.

        Raises ``ValueError`` when no request succeeded: the means are
        then undefined, and no component dominates.
        """
        if self.n_requests == 0:
            raise ValueError("no successful requests: no dominant component")
        means = self.component_means()
        return max(means, key=means.get)

    def component_means(self) -> Dict[str, float]:
        return {
            "communication": float(self.communication.mean()),
            "service": float(self.service.mean()),
            "inference": float(self.inference.mean()),
        }

    def throughput(self, makespan_s: float) -> float:
        """Requests per second over a given makespan."""
        if makespan_s <= 0:
            raise ValueError("makespan must be positive")
        return self.n_requests / makespan_s


@dataclass(frozen=True)
class DataMetrics:
    """Staging-plane accounting for one DataManager (data subsystem).

    ``bytes_moved`` is what actually crossed the fabric; ``bytes_saved`` is
    what warm caches and in-flight dedup made free; ``transfer_wait`` is the
    distribution of per-transfer wall times (latency + fair-shared
    serialisation, so link contention shows up here).
    """

    bytes_moved: float
    bytes_saved: float
    cache_hits: int
    cache_misses: int
    dedup_hits: int
    links: int
    transfer_wait: DistStats

    @property
    def staged_requests(self) -> int:
        """Directives that named actual data (hits + dedup + misses)."""
        return self.cache_hits + self.dedup_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of staged requests served without moving bytes."""
        total = self.staged_requests
        if total == 0:
            return float("nan")
        return (self.cache_hits + self.dedup_hits) / total

    @property
    def bytes_requested(self) -> float:
        return self.bytes_moved + self.bytes_saved

    def row(self) -> Dict[str, object]:
        """Flat report row (sizes in GB for readability)."""
        return {
            "moved_gb": self.bytes_moved / 1e9,
            "saved_gb": self.bytes_saved / 1e9,
            "hit_rate": self.hit_rate,
            "hits": self.cache_hits,
            "dedup": self.dedup_hits,
            "misses": self.cache_misses,
            "wait_mean_s": self.transfer_wait.mean,
            "wait_p95_s": self.transfer_wait.p95,
        }


def data_metrics(manager) -> DataMetrics:
    """Extract :class:`DataMetrics` from a ``DataManager``."""
    return DataMetrics(
        bytes_moved=manager.bytes_transferred,
        bytes_saved=manager.bytes_saved,
        cache_hits=manager.cache_hits,
        cache_misses=manager.cache_misses,
        dedup_hits=manager.dedup_hits,
        links=manager.links_total,
        transfer_wait=dist_stats(manager.transfer_wait_s),
    )


@dataclass(frozen=True)
class FailureMetrics:
    """Resilience accounting: what broke, when it was seen, what it cost.

    ``goodput_core_s`` is useful work committed by DONE tasks;
    ``wasted_core_s`` is compute consumed by attempts that then failed
    (including attempts later retried to success).  ``detection_latency``
    measures fault to heartbeat-lease expiry -- the real observation delay
    of the control plane -- and ``recovery_latency`` measures failure to
    re-dispatch (detection + backoff + capacity wait).
    """

    n_tasks: int
    n_done: int
    n_failed: int              # terminally failed (after retries)
    n_canceled: int
    failures_total: int        # attempt failures, incl. recovered ones
    failure_reasons: Dict[str, int]   # "origin:ExceptionType" -> count
    retries_granted: int
    tasks_retried: int
    faults_injected: int
    resubmissions: int
    goodput_core_s: float
    wasted_core_s: float
    detection_latency: DistStats
    recovery_latency: DistStats

    @property
    def goodput_fraction(self) -> float:
        """Useful share of all consumed core-seconds."""
        total = self.goodput_core_s + self.wasted_core_s
        if total <= 0:
            return float("nan")
        return self.goodput_core_s / total

    def row(self) -> Dict[str, object]:
        """Flat report row (core-hours for readability)."""
        return {
            "done": f"{self.n_done}/{self.n_tasks}",
            "attempt_failures": self.failures_total,
            "retries": self.retries_granted,
            "goodput_core_h": self.goodput_core_s / 3600.0,
            "wasted_core_h": self.wasted_core_s / 3600.0,
            "goodput_frac": self.goodput_fraction,
            "detect_p50_s": self.detection_latency.p50,
            "recover_p50_s": self.recovery_latency.p50,
        }


def failure_metrics(session, tasks) -> FailureMetrics:
    """Extract :class:`FailureMetrics` from a session and its tasks.

    Works with or without the resilience subsystem: without it, detection
    and recovery distributions are empty and only the per-task failure
    reasons/goodput accounting remain.
    """
    from ..resilience.failures import failure_counts

    tasks = list(tasks)
    states = [t.state for t in tasks]
    goodput = sum((t.runtime_s or 0.0) * t.n_cores for t in tasks
                  if t.state == "DONE")
    wasted = sum(reason.wasted_core_s for t in tasks
                 for reason in t.failures)
    res = session.resilience
    detections: List[float] = []
    recoveries: List[float] = []
    retries = 0
    faults = 0
    resubs = 0
    if res is not None:
        detections = res.detection_latencies()
        recoveries = res.recovery.recovery_latencies()
        retries = res.recovery.retries_granted
        resubs = len(res.recovery.resubmissions)
        if res.injector is not None:
            faults = len([r for r in res.injector.records
                          if not r.kind.endswith("_repair")])
    return FailureMetrics(
        n_tasks=len(tasks),
        n_done=states.count("DONE"),
        n_failed=sum(1 for t in tasks
                     if t.state == "FAILED" and t.completed.triggered),
        n_canceled=states.count("CANCELED"),
        failures_total=sum(len(t.failures) for t in tasks),
        failure_reasons=failure_counts(tasks),
        retries_granted=retries,
        tasks_retried=sum(1 for t in tasks if t.attempts > 1),
        faults_injected=faults,
        resubmissions=resubs,
        goodput_core_s=goodput,
        wasted_core_s=wasted,
        detection_latency=dist_stats(detections),
        recovery_latency=dist_stats(recoveries),
    )


@dataclass(frozen=True)
class CampaignMetrics:
    """Overlap/idle accounting for one campaign's execution window.

    The streaming engine's whole point is filling the allocation that
    stage barriers idle, so the headline numbers are ``idle_fraction``
    (allocation core-seconds *not* spent executing over the campaign
    span) and ``overlap_fraction`` (of the time at least one node's task
    was executing, the share during which tasks of **two or more
    distinct nodes** executed concurrently -- exactly the concurrency a
    stage barrier forbids between consecutive stages).
    """

    makespan_s: float
    n_tasks: int
    n_done: int
    n_nodes: int
    busy_core_s: float
    alloc_core_s: float
    idle_fraction: float
    overlap_fraction: float
    peak_concurrency: int     # max simultaneously executing tasks
    peak_busy_cores: int      # max simultaneously busy cores

    def row(self) -> Dict[str, object]:
        """Flat report row (core-hours for readability)."""
        return {
            "makespan_s": self.makespan_s,
            "tasks": f"{self.n_done}/{self.n_tasks}",
            "busy_core_h": self.busy_core_s / 3600.0,
            "idle_frac": self.idle_fraction,
            "overlap_frac": self.overlap_fraction,
            "peak_tasks": self.peak_concurrency,
        }


def campaign_metrics(session, groups: Dict[str, Iterable],
                     total_cores: int) -> CampaignMetrics:
    """Extract :class:`CampaignMetrics` from a finished campaign.

    *groups* maps node keys to their tasks -- a
    :class:`~repro.workflows.campaign.CampaignRunner`'s ``node_tasks``
    fits directly.  Execution intervals come from the profiler's
    ``exec_start``/``exec_stop`` first-timestamps, so the ``durations``
    tier suffices; tasks that never reached execution are skipped.  The
    makespan runs from the first ``exec_start`` to the last ``exec_stop``;
    *total_cores* sizes the allocation for the idle accounting.
    """
    if total_cores < 1:
        raise ValueError("total_cores must be >= 1")
    profiler = session.profiler
    intervals = []   # (start, stop, group, cores)
    n_tasks = 0
    n_done = 0
    for group, tasks in groups.items():
        for task in tasks:
            n_tasks += 1
            n_done += task.state == "DONE"
            t0 = profiler.timestamp(task.uid, "exec_start")
            t1 = profiler.timestamp(task.uid, "exec_stop")
            if t0 is None or t1 is None:
                continue
            intervals.append((t0, t1, group, task.n_cores))
    if not intervals:
        nan = float("nan")
        return CampaignMetrics(
            makespan_s=0.0,
            n_tasks=n_tasks, n_done=n_done, n_nodes=len(groups),
            busy_core_s=0.0, alloc_core_s=0.0, idle_fraction=nan,
            overlap_fraction=nan, peak_concurrency=0, peak_busy_cores=0)

    makespan = (max(t1 for _, t1, _, _ in intervals)
                - min(t0 for t0, _, _, _ in intervals))
    busy_core_s = sum((t1 - t0) * cores for t0, t1, _, cores in intervals)
    alloc_core_s = total_cores * makespan

    # Sweep the interval boundaries, tracking active tasks per group.
    boundaries = []  # (time, order, group, d_tasks, d_cores)
    for t0, t1, group, cores in intervals:
        boundaries.append((t0, 1, group, 1, cores))
        boundaries.append((t1, 0, group, -1, -cores))
    boundaries.sort(key=lambda b: (b[0], b[1]))  # stops before starts
    active: Dict[str, int] = {}
    active_groups = 0    # groups with at least one executing task,
    busy_tasks = 0       # maintained incrementally on 0<->1 crossings so
    busy_cores = 0       # the sweep stays O(n log n) for per-item graphs
    peak_concurrency = 0
    peak_busy_cores = 0
    active_span = 0.0
    overlap_span = 0.0
    prev_t = boundaries[0][0]
    for time, _, group, d_tasks, d_cores in boundaries:
        dt = time - prev_t
        if dt > 0:
            if busy_tasks > 0:
                active_span += dt
                if active_groups >= 2:
                    overlap_span += dt
            prev_t = time
        before = active.get(group, 0)
        active[group] = before + d_tasks
        if before == 0 and d_tasks > 0:
            active_groups += 1
        elif before + d_tasks == 0 and before > 0:
            active_groups -= 1
        busy_tasks += d_tasks
        busy_cores += d_cores
        peak_concurrency = max(peak_concurrency, busy_tasks)
        peak_busy_cores = max(peak_busy_cores, busy_cores)

    return CampaignMetrics(
        makespan_s=float(makespan),
        n_tasks=n_tasks,
        n_done=n_done,
        n_nodes=len(groups),
        busy_core_s=float(busy_core_s),
        alloc_core_s=float(alloc_core_s),
        idle_fraction=(1.0 - busy_core_s / alloc_core_s
                       if alloc_core_s > 0 else float("nan")),
        overlap_fraction=(overlap_span / active_span
                          if active_span > 0 else float("nan")),
        peak_concurrency=peak_concurrency,
        peak_busy_cores=peak_busy_cores,
    )


def response_metrics(results: Iterable[InferenceResult]) -> ResponseMetrics:
    """Build RT metrics from client-side inference results.

    Only successful replies contribute: a request that exhausted its busy
    retries carries near-zero service/inference components and would drag
    the RT mean down (and inflate throughput) exactly when the system is
    overloaded.  Failures are counted by the experiment drivers instead
    (:attr:`Exp23Result.failed_total`).
    """
    results = [r for r in results if r.ok]
    return ResponseMetrics(
        response_time=np.array([r.response_time for r in results]),
        communication=np.array([r.communication for r in results]),
        service=np.array([r.service_time for r in results]),
        inference=np.array([r.inference_time for r in results]),
        queue=np.array([r.queue_time for r in results]),
    )
