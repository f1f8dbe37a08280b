#!/usr/bin/env python3
"""Live telemetry: trace a campaign, sample metrics, catch a straggler.

Runs a two-node campaign (one deliberately 10x-slow task injected) with
all three observability planes on, then:

* writes ``campaign_trace.json`` into a fresh temporary directory and
  prints its path -- open it in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing`` to see each task's lifecycle phases nested under its
  campaign node;
* prints the sampled metric series (pending depth, utilization, frontier
  size) and the latency/grant histograms;
* prints the anomaly log -- the injected straggler shows up flagged
  against the rolling median of its resource shape;
* prints the live-dashboard postmortem: final instrument values plus the
  performance attribution -- phase totals, the critical path (which pins
  the straggler's ``execute`` phase), and what-if makespan lower bounds.

Run:  python examples/observability.py
"""

import os
import tempfile

from repro import (
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskManager,
)
from repro.analytics import ReportBuilder
from repro.pilot.description import TaskDescription
from repro.workflows import CampaignGraph, TaskNode


def sim_task(name, duration):
    return TaskDescription(name=name, executable="sim",
                           duration_s=float(duration))


def build_graph():
    """simulate -> analyze, with one 10x straggler among the simulations."""
    return CampaignGraph(name="study", nodes=[
        TaskNode(name="simulate",
                 build=lambda c: [sim_task(f"sim{i}", 8.0)
                                  for i in range(7)]
                 + [sim_task("sim-straggler", 80.0)]),
        TaskNode(name="analyze", deps=("simulate",),
                 build=lambda c: [sim_task(f"ana{i}", 5.0)
                                  for i in range(4)]),
    ])


def main() -> None:
    config = ObservabilityConfig(sample_interval_s=5.0, dashboard=True,
                                 dashboard_interval_s=30.0)
    with Session(seed=9, observability=config) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e7))
        tmgr.add_pilots(pilot)
        runner = session.campaign_runner(tmgr)

        proc = session.engine.process(runner.run_campaign([build_graph()]))
        session.run(until=proc)
        makespan = session.now
        session.quiesce()       # final metric sample lands at drain time
        session.run()

        obs = session.observability
        trace_path = os.path.join(tempfile.mkdtemp(), "campaign_trace.json")
        n_spans = obs.tracer.to_chrome_trace(trace_path)

        report = ReportBuilder("Telemetry plane -- one campaign, traced")
        report.add_kv({
            "spans exported": n_spans,
            "trace file": f"{trace_path} (open in Perfetto)",
            "metric samples": len(obs.metrics.sample_times),
            "makespan": f"{makespan:.1f} s",
        }, title="run")

        util = obs.metrics.series_for("pilot_core_utilization",
                                      {"pilot": pilot.uid})
        pending = obs.metrics.series_for("scheduler_pending_total",
                                         {"pilot": pilot.uid})
        report.add_table(
            ["t (s)", "core utilization", "pending tasks"],
            [[f"{t:.0f}", f"{u:.2f}", f"{p:.0f}"]
             for (t, u), (_, p) in zip(util, pending)],
            title="sampled series")

        grants = obs.metrics.histogram("scheduler_grant_latency_s",
                                       {"pilot": pilot.uid})
        latency = obs.metrics.histogram("task_latency_s")
        report.add_kv({
            "tasks completed": latency.count,
            "grant latency p90": f"<= {grants.quantile(0.9):.3g} s",
            "task latency mean": f"{latency.mean:.1f} s",
            "task latency p90": f"<= {latency.quantile(0.9):.3g} s",
        }, title="latency histograms")

        report.add_table(
            ["kind", "severity", "subject", "message"],
            [[e.kind, e.severity, e.subject, e.message]
             for e in obs.monitors.events],
            title="anomaly log")
        report.print()

        # the end-of-run postmortem: dashboard summary + attribution.
        # the critical path pins sim-straggler's execute phase; every
        # what-if projection is a validated makespan lower bound.
        attribution = session.attribution(makespan=makespan)
        assert attribution.validate() == []
        print()
        print(obs.dashboard.summary(attribution=attribution,
                                    title="End-of-run postmortem"))


if __name__ == "__main__":
    main()
