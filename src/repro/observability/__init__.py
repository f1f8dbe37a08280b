"""Live telemetry plane: causal tracing, runtime metrics, anomaly monitors.

The analytics layer (:mod:`repro.analytics`) explains a run after it ends;
this package watches it *while it runs*.  Three planes, each independently
switchable:

* :mod:`~repro.observability.trace`   -- causal spans across the task
  lifecycle, campaign graph and data plane, exportable as Chrome
  trace-event JSON (Perfetto) or JSONL;
* :mod:`~repro.observability.metrics` -- counters/gauges/histograms with a
  sim-time sampling daemon producing per-instrument time series (queue
  depths, grant latency, utilization, link throughput, ...);
* :mod:`~repro.observability.monitor` -- anomaly detectors (stragglers,
  queue growth, SLO burn) emitting structured subscribable events.

Enable per session::

    session = Session(observability=ObservabilityConfig())
    ...
    session.quiesce()                       # final sample; sampler stopped
    session.run()
    session.observability.tracer.to_chrome_trace("trace.json")

The default ``Session()`` carries ``observability=None`` and every hook
site guards with a single attribute test (``obs = session.observability``
... ``if obs is not None``), so the disabled plane costs one pointer read
on hot paths -- the scheduler-throughput floor is unaffected (enforced by
``benchmarks/test_ablation_observability.py``).

What a watched task costs while it runs: nothing per transition -- a
transition is appended once, by the profiler, and the tracer reads it off
the profile when queried; two records in the tracer's task log (submission
and completion, when tracing is on); the enqueue time in its scheduler
entry, which the ``scheduler_grant_latency_s`` histogram reads at the
grant; and **one** callback on its completion event -- the same bound
method for every task -- that serves every plane that is on: the tracer's
completion record, the ``task_latency_s`` histogram and
``tasks_completed_total`` counter (handles kept after first use) and the
straggler / SLO monitors (an insertion into a sorted window, no sort).
Spans are built by the first query, not during the run (see
:mod:`~repro.observability.trace`); the same benchmark gates run + first
query against the unwatched run (``e2e_full_plane_ratio``).  README.md
("Observability") gives the cost in microseconds per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Optional

from ..pilot.states import TaskState
from .attribution import (
    CampaignAttribution,
    NodeAttribution,
    PathStep,
    Projection,
    TaskPhases,
)
from .bench import BenchMetric, BenchResult
from .dashboard import Dashboard
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .monitor import AnomalyEvent, MonitorHub
from .trace import Span, Tracer, spans_from_profiler

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from ..pilot.task import Task

__all__ = ["ObservabilityConfig", "ObservabilityServices",
           "Tracer", "Span", "spans_from_profiler",
           "MetricsRegistry", "Counter", "Gauge", "Histogram",
           "MonitorHub", "AnomalyEvent",
           "CampaignAttribution", "NodeAttribution", "TaskPhases",
           "PathStep", "Projection", "Dashboard",
           "BenchResult", "BenchMetric"]


@dataclass
class ObservabilityConfig:
    """Telemetry-plane switches and detector tuning.

    All three planes default on; turn individual ones off for cheaper runs
    (``ObservabilityConfig(tracing=False)`` keeps metrics + monitors).
    """

    #: record causal spans (task lifecycle, campaign nodes, transfers)
    tracing: bool = True
    #: register instruments and run the sampling daemon
    metrics: bool = True
    #: run anomaly detectors (requires nothing from the other two planes,
    #: but queue-growth detection only fires when metrics are on)
    monitors: bool = True
    #: simulated seconds between metric samples
    sample_interval_s: float = 5.0

    #: run the live text dashboard daemon (renders periodic snapshots of
    #: gauges/histograms and recent anomalies; needs the metrics plane)
    dashboard: bool = False
    #: simulated seconds between dashboard snapshots
    dashboard_interval_s: float = 60.0

    # straggler detection: exec time > k x rolling median of same shape
    straggler_k: float = 3.0
    straggler_window: int = 32
    straggler_min_samples: int = 5

    # queue growth: depth grew monotonically over the last N samples while
    # at or above the minimum depth
    queue_growth_window: int = 5
    queue_growth_min_depth: float = 16.0

    # SLO burn: submit-to-done latency objective (None disables) and the
    # miss fraction over the rolling window that triggers the alert
    slo_latency_s: Optional[float] = None
    slo_window: int = 32
    slo_burn_threshold: float = 0.5


class ObservabilityServices:
    """Per-session telemetry facade: ``session.observability``.

    Holds the three planes (each None when its config switch is off) and
    the task-lifecycle glue shared by all instrumented subsystems.  The
    metrics sampling daemon starts with the session and follows the
    standard daemon contract (stopped by ``quiesce()``, which takes the
    final sample).
    """

    def __init__(self, session: "Session",
                 config: Optional[ObservabilityConfig] = None) -> None:
        self.session = session
        self.config = config or ObservabilityConfig()
        self.tracer: Optional[Tracer] = (
            Tracer(session) if self.config.tracing else None)
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None)
        self.monitors: Optional[MonitorHub] = (
            MonitorHub(self.config) if self.config.monitors else None)
        self.dashboard: Optional[Dashboard] = None
        # completion instruments, resolved once (see _on_task_completed)
        self._latency: Optional[Histogram] = None
        self._completed: Dict[str, Counter] = {}
        #: the completion observer every watched task shares
        self._observer = self._on_task_completed
        if self.config.dashboard and self.metrics is not None:
            self.dashboard = Dashboard(
                session, interval_s=self.config.dashboard_interval_s)
        if self.metrics is not None:
            if self.monitors is not None:
                # queue-growth detection scans the sampled series each tick
                metrics, monitors, engine = \
                    self.metrics, self.monitors, session.engine
                metrics.add_poll(
                    lambda: monitors.on_sample(metrics, engine.now))
            session.add_daemon(self.metrics.sampler(
                session.engine, self.config.sample_interval_s))

    # -- interpretation --------------------------------------------------------
    def attribution(self, makespan: Optional[float] = None,
                    ) -> CampaignAttribution:
        """Performance attribution built from the live span forest.

        Requires the tracing plane; see
        :class:`~repro.observability.attribution.CampaignAttribution`
        for the offline (profiler-based) constructors.
        """
        if self.tracer is None:
            raise RuntimeError(
                "attribution needs the tracing plane "
                "(ObservabilityConfig(tracing=True))")
        return CampaignAttribution.from_spans(self.tracer.spans,
                                              makespan=makespan)

    # -- task lifecycle glue ---------------------------------------------------
    def task_submitted(self, task: "Task") -> None:
        """Called by the TaskManager for every accepted task.

        Leaves one callback on the task's completion event, the observer
        all tasks share; it serves every plane that is on.
        """
        if self.tracer is not None:
            self.tracer.task_submitted(task)
        task._obs_submitted_at = self.session.engine.now
        task.completed.callbacks.append(self._observer)

    def _on_task_completed(self, event) -> None:
        task = event.task
        now = self.session.engine.now
        latency = now - task._obs_submitted_at
        state = task.state
        if self.tracer is not None:
            self.tracer.task_completed(task.uid)
        if self.metrics is not None:
            # handles are kept; instruments still register where they
            # always did (the first completion, the first of each final
            # state), so their sampled series start at the same tick
            completed = self._completed.get(state)
            if completed is None:
                if self._latency is None:
                    self._latency = self.metrics.histogram("task_latency_s")
                completed = self._completed[state] = self.metrics.counter(
                    "tasks_completed_total", {"state": state})
            self._latency.observe(latency)
            completed.inc()
        if self.monitors is not None:
            if state == TaskState.DONE:
                self.monitors.observe_exec(task, now)
            self.monitors.observe_latency(task.uid, latency, now)
