"""Ablation: streaming campaign engine vs barrier-synchronized pipelines.

The workflow layer historically executed stage bags bulk-synchronously:
it barriered on the *entire* stage before building the next one (a chain
graph with one node per stage, here ``streaming_graph(n).barriered(...)``),
so one straggler task idled the whole allocation between stages.
The campaign engine replaces that with per-item dataflow chains -- each
item advances to its next stage the moment its own inputs complete.

**Study 1 -- straggler-heavy hybrid campaign.**  ``N_ITEMS`` items each
walk a four-stage hybrid chain (CPU simulate -> CPU featurize -> GPU
train -> GPU infer) plus a final all-items reduce.  Durations are
heterogeneous and deterministic: every item is a straggler in exactly one
stage (12x its base duration), rotating across stages.  Under barriers
the makespan is the *sum of per-stage maxima* (every stage waits for its
straggler); streamed, it is roughly the *worst single chain*.  The same
work, the same allocation -- only the execution model changes.
Acceptance: **>= 2x makespan reduction**, with the allocation-idle
fraction and cross-node overlap fraction reported from
``analytics.campaign_metrics``.

**Study 2 -- backpressure window.**  The same streaming campaign run
under ``CampaignRunner(window=...)``: the shared SubmissionWindow bounds
concurrently driven tasks across every node of the graph (agent queue
depth, live driver generators), trading a controlled amount of makespan
for bounded control-plane pressure.  The peak-in-flight bound is asserted
exactly.

**Study 3 -- performance attribution.**  The streaming campaign re-run
with the telemetry plane on: the span forest must *name the culprit* --
the critical path's top contributor has to be a straggling ``train`` node
with ``execute`` as its dominant phase -- and every what-if projection
(zero-cost transfers, infinite nodes, no recovery) must be a sound lower
bound on the measured makespan.  The same test exercises the regression
gate end-to-end: the CLI passes when a baseline agrees with itself and
fails (non-zero exit) on a doctored baseline demanding 2x the measured
throughput.

The >= 2x speedup floor and the idle/overlap orderings double as the CI
smoke: a regression that re-introduces a stage barrier (or breaks
windowed submission) fails this module at any ``REPRO_BENCH_SCALE``.
"""

import json

from conftest import RESULTS_DIR, bench_scale

from repro import ObservabilityConfig
from repro.analytics import ReportBuilder, campaign_metrics
from repro.observability import BenchResult
from repro.observability.bench import aggregate as bench_aggregate
from repro.observability.regress import main as regress_main
from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.workflows import (
    CampaignGraph,
    CampaignRunner,
    TaskNode,
)

#: the hybrid chain every item walks (name, base duration s, gpus)
STAGES = (
    ("simulate", 8.0, 0),
    ("featurize", 6.0, 0),
    ("train", 10.0, 1),
    ("infer", 4.0, 1),
)
STRAGGLER_FACTOR = 12.0
REDUCE_DURATION = 2.0

#: enough items that every stage owns at least two stragglers, at any scale
N_ITEMS = max(8, bench_scale(24))
N_NODES = 8                      # delta: 64 cores + 4 GPUs per node
TOTAL_CORES = N_NODES * 64

WINDOWS = [None, 8, 16]

MIN_SPEEDUP = 2.0                # CI smoke floor (ISSUE 5 acceptance)


def stage_duration(stage: int, item: int) -> float:
    """Deterministic heterogeneity: item i straggles in stage i % 4."""
    duration = STAGES[stage][1]
    if item % len(STAGES) == stage:
        duration *= STRAGGLER_FACTOR
    return duration


def item_task(stage: int, item: int) -> TaskDescription:
    name, _, gpus = STAGES[stage]
    return TaskDescription(name=f"{name}-{item}", executable="sim",
                           duration_s=stage_duration(stage, item),
                           cores_per_rank=1, gpus_per_rank=gpus)


def reduce_task() -> TaskDescription:
    return TaskDescription(name="reduce", executable="sim",
                           duration_s=REDUCE_DURATION, cores_per_rank=1)


def streaming_graph(n_items: int) -> CampaignGraph:
    """Per-item dataflow chains + a reduce node over every chain's tail."""
    nodes = []
    for item in range(n_items):
        for stage, (name, _, gpus) in enumerate(STAGES):
            deps = (f"{STAGES[stage - 1][0]}-{item}",) if stage else ()
            nodes.append(TaskNode(
                name=f"{name}-{item}", deps=deps,
                resource_type="GPU" if gpus else "CPU",
                build=lambda c, s=stage, i=item: [item_task(s, i)]))
    nodes.append(TaskNode(
        name="reduce",
        deps=tuple(f"{STAGES[-1][0]}-{i}" for i in range(n_items)),
        build=lambda c: [reduce_task()]))
    return CampaignGraph(name="hybrid-streaming", nodes=nodes)


def barrier_pipeline(n_items: int) -> CampaignGraph:
    """The same work as stage bags, one node per stage in a chain: the
    historical execution model, derived from the streaming graph."""
    return streaming_graph(n_items).barriered(
        [name for name, _, _ in STAGES] + ["reduce"])


def environment(seed: int = 7, observability=None):
    session = Session(seed=seed, profile="durations",
                      observability=observability)
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=N_NODES, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    return session, tmgr


def run_streaming(window=None):
    session, tmgr = environment()
    with session:
        runner = CampaignRunner(session, tmgr, window=window)
        proc = session.engine.process(
            runner.run_campaign(streaming_graph(N_ITEMS)))
        session.run(until=proc)
        metrics = campaign_metrics(session, runner.node_tasks, TOTAL_CORES)
        peak_in_flight = (runner.window.peak if runner.window is not None
                          else metrics.peak_concurrency)
        return session.now, metrics, peak_in_flight


def run_barrier():
    session, tmgr = environment()
    with session:
        runner = CampaignRunner(session, tmgr)
        proc = session.engine.process(
            runner.run_campaign(barrier_pipeline(N_ITEMS)))
        session.run(until=proc)
        # group the bag tasks by their stage so the overlap metric sees
        # the same node structure the streaming run has
        groups = {}
        for task in tmgr.tasks:
            stage = task.description.name.rsplit("-", 1)[0]
            groups.setdefault(stage, []).append(task)
        metrics = campaign_metrics(session, groups, TOTAL_CORES)
        return session.now, metrics


class TestStreamingVsBarrier:
    def test_straggler_campaign_speedup(self, emit):
        barrier_makespan, barrier = run_barrier()
        streaming_makespan, streaming, _ = run_streaming()
        speedup = barrier_makespan / streaming_makespan

        # per-stage straggler durations, for the report's narrative
        stage_rows = [
            (name, f"{base:.0f}", f"{base * STRAGGLER_FACTOR:.0f}",
             sum(1 for i in range(N_ITEMS) if i % len(STAGES) == s))
            for s, (name, base, _) in enumerate(STAGES)]

        report = (
            ReportBuilder("Ablation: streaming campaign vs barrier "
                          "pipeline (straggler-heavy hybrid)")
            .add_kv({
                "items": N_ITEMS,
                "stages per item": len(STAGES),
                "straggler factor": f"{STRAGGLER_FACTOR:.0f}x",
                "allocation": f"{N_NODES} delta nodes "
                              f"({TOTAL_CORES} cores, {N_NODES * 4} gpus)",
            }, title="campaign")
            .add_table(
                ["stage", "base s", "straggler s", "stragglers"],
                stage_rows, title="per-stage heterogeneity")
            .add_table(
                ["execution model", "makespan s", "idle frac",
                 "overlap frac", "peak tasks"],
                [("barrier (chain graph)", f"{barrier_makespan:.1f}",
                  f"{barrier.idle_fraction:.3f}",
                  f"{barrier.overlap_fraction:.3f}",
                  barrier.peak_concurrency),
                 ("streaming (campaign)", f"{streaming_makespan:.1f}",
                  f"{streaming.idle_fraction:.3f}",
                  f"{streaming.overlap_fraction:.3f}",
                  streaming.peak_concurrency)],
                title="streaming vs barrier")
            .add_kv({
                "makespan speedup": f"{speedup:.2f}x (floor "
                                    f"{MIN_SPEEDUP:.1f}x)",
                "idle core-h saved": f"{(barrier.alloc_core_s - streaming.alloc_core_s) / 3600.0:.1f}",
            }, title="verdict"))

        bench = BenchResult(params={
            "n_items": N_ITEMS, "n_nodes": N_NODES,
            "straggler_factor": STRAGGLER_FACTOR})
        bench.record("barrier_makespan_s", barrier_makespan, unit="s",
                     direction="lower")
        bench.record("streaming_makespan_s", streaming_makespan, unit="s",
                     direction="lower")
        bench.record("streaming_speedup", speedup, unit="x",
                     floor=MIN_SPEEDUP, scale_free=True)
        bench.record("streaming_idle_fraction", streaming.idle_fraction,
                     direction="lower")
        bench.record("barrier_idle_fraction", barrier.idle_fraction,
                     direction="lower")
        bench.record("streaming_overlap_fraction",
                     streaming.overlap_fraction)
        emit(report, bench=bench)

        # same work completed either way
        assert barrier.n_done == streaming.n_done == \
            N_ITEMS * len(STAGES) + 1
        # the acceptance floor: >= 2x makespan reduction
        assert speedup >= MIN_SPEEDUP, (
            f"streaming speedup {speedup:.2f}x below {MIN_SPEEDUP}x floor")
        # the allocation idles less and cross-node overlap appears
        assert streaming.idle_fraction < barrier.idle_fraction
        assert streaming.overlap_fraction > barrier.overlap_fraction


class TestBackpressureWindow:
    def test_window_bounds_in_flight_tasks(self, emit):
        rows = []
        results = {}
        for window in WINDOWS:
            makespan, metrics, peak = run_streaming(window=window)
            results[window] = (makespan, metrics, peak)
            rows.append((window if window is not None else "unbounded",
                         f"{makespan:.1f}", peak,
                         f"{metrics.idle_fraction:.3f}"))
        report = (
            ReportBuilder("Ablation: campaign backpressure window")
            .add_table(
                ["window", "makespan s", "peak in-flight", "idle frac"],
                rows,
                title=f"{N_ITEMS}-item streaming campaign under "
                      "windowed submission"))

        bench = BenchResult(params={"n_items": N_ITEMS,
                                    "windows": [w or 0 for w in WINDOWS]})
        bench.record("unbounded_makespan_s", results[None][0], unit="s",
                     direction="lower")
        for window in WINDOWS[1:]:
            bench.record(f"window{window}_makespan_s",
                         results[window][0], unit="s", direction="lower")
            bench.record(f"window{window}_peak_in_flight",
                         results[window][2], direction="lower",
                         floor=float(window), scale_free=True)
        emit(report, bench=bench)

        for window in WINDOWS:
            makespan, metrics, peak = results[window]
            assert metrics.n_done == N_ITEMS * len(STAGES) + 1
            if window is not None:
                assert peak <= window
        # backpressure trades makespan monotonically: the tighter window
        # can not run faster than the unbounded campaign
        assert results[None][0] <= results[WINDOWS[1]][0] + 1e-6


class TestAttributionStudy:
    """The streaming campaign under the performance-attribution engine."""

    def test_critical_path_names_the_straggler(self, emit, tmp_path):
        config = ObservabilityConfig(sample_interval_s=30.0,
                                     dashboard=True,
                                     dashboard_interval_s=60.0)
        session, tmgr = environment(observability=config)
        with session:
            runner = CampaignRunner(session, tmgr)
            proc = session.engine.process(
                runner.run_campaign(streaming_graph(N_ITEMS)))
            session.run(until=proc)
            makespan = session.now          # before the drain moves the clock
            session.quiesce()
            session.run()
            attribution = session.attribution(makespan=makespan)
            summary = session.observability.dashboard.summary(
                attribution=attribution,
                title="Streaming campaign -- end-of-run telemetry")
        # the CI-artifact postmortem: dashboard + attribution in one text
        (RESULTS_DIR / "campaign_dashboard_summary.txt").write_text(
            summary + "\n")

        path = attribution.critical_path()
        top = attribution.top_contributors(1)[0]
        projections = attribution.projections()

        report = ReportBuilder(
            "Ablation: performance attribution of the straggler-heavy "
            "streaming campaign")
        report.add_text(attribution.report(
            title=f"{N_ITEMS}-item hybrid campaign, {N_NODES} delta nodes"))

        bench = BenchResult(params={"n_items": N_ITEMS,
                                    "n_nodes": N_NODES})
        bench.record("actual_makespan_s", makespan, unit="s",
                     direction="lower")
        bench.record("critical_path_nodes", len(path), direction="lower")
        bench.record("top_contributor_s", top.duration, unit="s",
                     direction="lower")
        bench.record("dag_bound_fraction",
                     projections["dependencies_only"].bound / makespan)
        throughput = (N_ITEMS * len(STAGES) + 1) / makespan
        bench.record("streaming_throughput_tasks_per_s", throughput,
                     unit="tasks/s", floor=round(0.5 * throughput, 3))
        emit(report, bench=bench)

        # -- acceptance --------------------------------------------------------
        # the critical path names the culprit: a straggling train node,
        # dominated by its execute phase
        graph_name, node = top.key.split("/", 1)
        stage, item = node.rsplit("-", 1)
        assert graph_name == "hybrid-streaming"
        assert stage == "train", f"top contributor {top.key} is not train"
        assert int(item) % len(STAGES) == 2, \
            f"{top.key} is not a train straggler (items 2 mod 4 straggle)"
        assert top.dominant_phase == "execute"
        # execute dominates the on-path phase mix too
        path_phases = attribution.critical_path_phases()
        assert max(path_phases, key=path_phases.get) == "execute"

        # every what-if projection is a sound lower bound
        assert attribution.validate() == []
        for projection in projections.values():
            assert projection.bound <= makespan + 1e-6
        # dropping phases can only lower the bound
        full = projections["dependencies_only"].bound
        for name in ("infinite_nodes", "zero_cost_transfers",
                     "no_recovery"):
            assert projections[name].bound <= full + 1e-9

        # -- the regression gate, end to end -----------------------------------
        # a baseline agrees with itself ...
        doc = bench_aggregate([bench])[bench.suite]
        new_path = tmp_path / "new.json"
        new_path.write_text(json.dumps(doc))
        assert regress_main([str(new_path), str(new_path),
                             "--quiet"]) == 0
        # ... and a doctored baseline demanding 2x the measured
        # throughput makes the CLI exit non-zero
        doctored = json.loads(json.dumps(doc))
        metric = doctored["benchmarks"][bench.name]["metrics"][
            "streaming_throughput_tasks_per_s"]
        metric["floor"] = 2.0 * metric["value"]
        old_path = tmp_path / "doctored.json"
        old_path.write_text(json.dumps(doctored))
        assert regress_main([str(old_path), str(new_path),
                             "--quiet"]) == 1
