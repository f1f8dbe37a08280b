"""Anomaly monitors: stragglers, queue growth, SLO burn.

Monitors turn raw telemetry into *structured, subscribable events*
(:class:`AnomalyEvent`).  Tests assert on them, drivers subscribe to them
(e.g. to resubmit a flagged straggler speculatively), and post-mortem they
double as an incident log.  Three detectors ship:

* **straggler** -- a task whose execution time exceeds ``k`` times the
  rolling median of recently completed tasks *of the same resource shape*
  (comparing a 64-core MPI job against single-core tasks would flag the
  entire MPI workload);
* **queue_growth** -- a queue-depth series that grew monotonically over
  the last N sample ticks while above a minimum depth: the classic
  saturation signature (arrival rate > service rate);
* **slo_burn** -- the fraction of recently completed tasks that missed a
  submit-to-done latency objective exceeds a burn threshold.  Off unless
  an SLO is configured.

Severity is ``"warning"`` or ``"critical"``; detectors are deliberately
simple and deterministic (no EWMA tuning knobs) so alerts are explainable
and reproducible under a fixed seed.

**The sorted window.**  Each shape keeps its recent runtimes twice: in
arrival order (what to evict) and sorted.  A completion inserts its
runtime into the sorted copy by bisection and removes the evicted one the
same way, so the median is an index, not a sort per completion; it is
taken with the exact formula of :func:`statistics.median` (the middle
element, or the mean of the two middle ones), so every ``median_s`` and
``ratio`` is the one a sort gives.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Deque, Dict, List,
                    Optional, Tuple)

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.task import Task
    from . import ObservabilityConfig
    from .metrics import MetricsRegistry

__all__ = ["AnomalyEvent", "MonitorHub"]


@dataclass
class AnomalyEvent:
    """One detected anomaly."""

    kind: str                 # "straggler" | "queue_growth" | "slo_burn"
    t: float                  # simulated time of detection
    subject: str              # task uid, queue name, ...
    message: str
    severity: str = "warning"
    details: Dict[str, Any] = field(default_factory=dict)


class MonitorHub:
    """Runs the detectors and fans detected anomalies out to subscribers."""

    def __init__(self, config: "ObservabilityConfig") -> None:
        self.config = config
        self.events: List[AnomalyEvent] = []
        self._subscribers: List[Callable[[AnomalyEvent], None]] = []
        #: shape key -> rolling window of recent exec times: in arrival
        #: order, and the same values sorted
        self._exec_windows: Dict[Tuple, Tuple[Deque[float], List[float]]] = {}
        #: rolling window of (met_slo: bool) for recent completions
        self._slo_window: Deque[bool] = deque(maxlen=config.slo_window)
        #: queue series already alerted at a given growth streak, to dedup
        self._growth_alerted: Dict[Tuple[str, Tuple], float] = {}

    # -- plumbing --------------------------------------------------------------
    def subscribe(self, fn: Callable[[AnomalyEvent], None]) -> None:
        self._subscribers.append(fn)

    def emit(self, event: AnomalyEvent) -> None:
        self.events.append(event)
        for fn in self._subscribers:
            fn(event)

    def of_kind(self, kind: str) -> List[AnomalyEvent]:
        return [e for e in self.events if e.kind == kind]

    # -- straggler detection ---------------------------------------------------
    @staticmethod
    def _shape_of(task: "Task") -> Tuple:
        return (task.n_cores, task.n_gpus, task.description.ranks)

    def observe_exec(self, task: "Task", t: float) -> None:
        """Feed one completed task's execution time; may emit a straggler.

        The sample joins the window *after* comparison, so a burst of slow
        tasks doesn't immediately drag the median up and mask itself.
        """
        runtime = task.runtime_s
        if runtime is None:
            return
        cfg = self.config
        shape = self._shape_of(task)
        windows = self._exec_windows.get(shape)
        if windows is None:
            windows = self._exec_windows[shape] = (deque(), [])
        window, ranked = windows
        n = len(ranked)
        if n >= cfg.straggler_min_samples:
            half = n // 2
            med = (ranked[half] if n % 2
                   else (ranked[half - 1] + ranked[half]) / 2)
            if med > 0 and runtime > cfg.straggler_k * med:
                ratio = runtime / med
                self.emit(AnomalyEvent(
                    kind="straggler", t=t, subject=task.uid,
                    message=(f"{task.uid} ran {runtime:.3f}s, "
                             f"{ratio:.1f}x the rolling median "
                             f"({med:.3f}s) of its shape"),
                    severity="critical" if ratio >= 2 * cfg.straggler_k
                             else "warning",
                    details={"runtime_s": runtime, "median_s": med,
                             "ratio": ratio, "shape": shape,
                             "attempts": task.attempts}))
        window.append(runtime)
        insort(ranked, runtime)
        if len(window) > cfg.straggler_window:  # the oldest leaves both
            del ranked[bisect_left(ranked, window.popleft())]

    def observe_latency(self, uid: str, latency_s: float, t: float) -> None:
        """Feed one submit-to-done latency; may emit an SLO burn alert."""
        cfg = self.config
        if cfg.slo_latency_s is None:
            return
        self._slo_window.append(latency_s <= cfg.slo_latency_s)
        window = self._slo_window
        if len(window) < window.maxlen:
            return
        burn = 1.0 - sum(window) / len(window)
        if burn >= cfg.slo_burn_threshold:
            self.emit(AnomalyEvent(
                kind="slo_burn", t=t, subject="task_latency",
                message=(f"{burn:.0%} of the last {len(window)} tasks "
                         f"missed the {cfg.slo_latency_s}s latency SLO"),
                severity="critical",
                details={"burn": burn, "window": len(window),
                         "slo_latency_s": cfg.slo_latency_s,
                         "last_uid": uid}))
            window.clear()  # re-arm instead of alerting every completion

    # -- queue growth (driven from the sample tick) ----------------------------
    def on_sample(self, registry: "MetricsRegistry", t: float) -> None:
        """Scan queue-depth series for sustained monotonic growth."""
        cfg = self.config
        n = cfg.queue_growth_window
        for name in ("scheduler_pending_total", "service_queue_depth"):
            for labels, points in registry.series_by_name(name).items():
                if len(points) < n:
                    continue
                tail = [v for _, v in points[-n:]]
                if tail[-1] < cfg.queue_growth_min_depth:
                    continue
                if not all(b > a for a, b in zip(tail, tail[1:])):
                    continue
                key = (name, labels)
                # dedup: one alert per growth streak -- re-alert only after
                # the streak restarts (i.e. depth dipped since last alert)
                if self._growth_alerted.get(key, -1.0) >= points[-n][0]:
                    continue
                self._growth_alerted[key] = t
                subject = name + "".join(f"[{k}={v}]" for k, v in labels)
                self.emit(AnomalyEvent(
                    kind="queue_growth", t=t, subject=subject,
                    message=(f"{subject} grew monotonically over the last "
                             f"{n} samples (now {tail[-1]:.0f})"),
                    severity="warning",
                    details={"depth": tail[-1], "window": n,
                             "series": tail}))
