"""Live text dashboard: periodic telemetry snapshots in simulated time.

The metrics registry accumulates series and the monitor hub accumulates
anomalies, but during a long campaign nobody *sees* them until the run
ends.  The :class:`Dashboard` is a session daemon -- a re-armed timer
record (:class:`~repro.sim.events.Ticker`), stopped by ``quiesce()`` like
every other keep-alive -- that renders a compact text snapshot every
``interval_s`` simulated seconds:

* every **gauge**'s current value and every **counter**'s total;
* every **histogram**'s count / mean / p50 / p99;
* the :data:`MAX_EVENTS` most recent
  :class:`~repro.observability.monitor.AnomalyEvent`\\ s.

Snapshots accumulate on :attr:`Dashboard.snapshots`.  Quiesce
withdraws the armed tick (no clock drag in the drain) and takes one final
snapshot in the call, so drain-time values appear.

:meth:`Dashboard.summary` renders the end-of-run report -- final
instrument values, the anomaly log, and (when tracing was on) the full
performance-attribution section from
:mod:`repro.observability.attribution` -- through the analytics report
layer, so the campaign postmortem reads like the paper's tables.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional

from ..sim.events import Ticker

if TYPE_CHECKING:  # pragma: no cover
    from ..pilot.session import Session
    from .attribution import CampaignAttribution

__all__ = ["Dashboard"]

#: anomalies a snapshot lists (the most recent ones)
MAX_EVENTS = 5


class Dashboard:
    """Periodic telemetry snapshot renderer (a session daemon).

    It renders ``session.observability``, so the session must carry one
    (``ObservabilityConfig(dashboard=True)`` builds it there).
    """

    def __init__(self, session: "Session", interval_s: float = 60.0) -> None:
        if not interval_s > 0:
            raise ValueError("interval_s must be positive")
        self.session = session
        self.interval_s = interval_s
        self.snapshots: List[str] = []
        session.add_daemon(Ticker(session.engine, self._snap,
                                  first=interval_s, final=self._snap))

    # -- the daemon ----------------------------------------------------------
    def _snap(self, _: Any = None) -> float:
        text = self.snapshot()
        self.snapshots.append(text)
        return self.interval_s

    # -- rendering -----------------------------------------------------------
    @staticmethod
    def _label(instrument) -> str:
        if not instrument.labels:
            return instrument.name
        inner = ",".join(f"{k}={v}" for k, v in instrument.labels)
        return f"{instrument.name}{{{inner}}}"

    def snapshot(self) -> str:
        """One rendered snapshot of the current telemetry state."""
        obs = self.session.observability
        lines = [f"== telemetry @ t={self.session.now:.1f}s =="]
        registry = obs.metrics
        by_kind = {"gauge": [], "counter": [], "histogram": []}
        for inst in registry.instruments():
            by_kind[inst.kind].append(inst)
        for kind in ("gauge", "counter"):
            for inst in sorted(by_kind[kind], key=self._label):
                lines.append(
                    f"  {kind:<9} {self._label(inst):<44} {inst.value:g}")
        for inst in sorted(by_kind["histogram"], key=self._label):
            lines.append(
                f"  histogram {self._label(inst):<44} "
                f"count={inst.count} mean={inst.mean:.3f} "
                f"p50={inst.quantile(0.5):g} p99={inst.quantile(0.99):g}")
        if not registry.instruments():
            lines.append("  (no instruments registered yet)")
        monitors = obs.monitors
        if monitors is not None and monitors.events:
            lines.append(f"  -- recent anomalies "
                         f"({len(monitors.events)} total) --")
            for event in monitors.events[-MAX_EVENTS:]:
                lines.append(f"  [{event.severity:>8}] t={event.t:.1f} "
                             f"{event.kind}: {event.message}")
        return "\n".join(lines)

    def summary(self,
                attribution: Optional["CampaignAttribution"] = None,
                title: str = "End-of-run telemetry summary") -> str:
        """The end-of-run report, through the analytics report layer.

        With no *attribution* given, one is built from the live tracer
        when the tracing plane is on (and silently omitted otherwise).
        """
        from ..analytics.report import ReportBuilder

        obs = self.session.observability
        builder = ReportBuilder(title)
        registry = obs.metrics
        rows = []
        for inst in sorted(registry.instruments(), key=self._label):
            value = (f"count={inst.count} mean={inst.mean:.3f} "
                     f"p99={inst.quantile(0.99):g}"
                     if inst.kind == "histogram" else f"{inst.value:g}")
            rows.append([inst.kind, self._label(inst), value])
        if rows:
            builder.add_table(["kind", "instrument", "final value"],
                              rows, title="instruments")
        builder.add_kv({"samples taken": len(registry.sample_times),
                        "snapshots rendered": len(self.snapshots)},
                       title="sampling")
        monitors = obs.monitors
        if monitors is not None:
            counts = {}
            for event in monitors.events:
                counts[event.kind] = counts.get(event.kind, 0) + 1
            builder.add_kv(counts or {"anomalies": 0},
                           title="anomaly events by kind")
        if attribution is None and obs.tracer is not None \
                and obs.tracer.spans:
            from .attribution import CampaignAttribution
            attribution = CampaignAttribution.from_spans(obs.tracer.spans)
        text = builder.render()
        if attribution is not None and attribution.nodes:
            text += "\n\n" + attribution.report()
        return text
