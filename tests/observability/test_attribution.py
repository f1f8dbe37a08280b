"""The attribution engine: phase breakdowns, critical path, what-if bounds."""

import itertools
import random

import pytest

from repro import (
    CampaignAttribution,
    ObservabilityConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.observability.attribution import (
    PHASES,
    RECOVERY_PHASES,
    TRANSFER_PHASES,
    WAIT_PHASES,
    NodeAttribution,
    TaskPhases,
)
from repro.observability.trace import Span
from repro.workflows import CampaignGraph, TaskNode

_ids = itertools.count(1)


def task_spans(uid, start, phases, trace_id=None, node=None):
    """A closed task root span plus one phase span per (name, duration);
    the root is parented onto the campaign *node* span, if given."""
    if node is not None:
        trace_id = node.trace_id
    trace_id = trace_id or next(_ids)
    spans = []
    t = start
    root = Span(trace_id, next(_ids),
                node.span_id if node is not None else None, uid, "task",
                start)
    spans.append(root)
    for name, duration in phases:
        span = Span(trace_id, next(_ids), root.span_id, name, "task", t)
        t += duration
        span.end = t
        spans.append(span)
    root.end = t
    return spans


def node_span(key, deps=()):
    """A campaign node span carrying its dependency edges, as the campaign
    runner stamps them."""
    return Span(next(_ids), next(_ids), None, key, "campaign_node", 0.0,
                {"deps": list(deps)})


def diamond():
    """a -> {b, c} -> d with deterministic phase mixes.

    a: 2 wait + 8 execute        (ends t=10)
    b: 1 wait + 19 execute       (t=10..30, the slow arm)
    c: 2 stage_in + 3 execute    (t=10..15)
    d: 1 wait + 2 execute        (t=30..33)
    """
    a, b, c, d = (node_span("g/a"), node_span("g/b", ("g/a",)),
                  node_span("g/c", ("g/a",)),
                  node_span("g/d", ("g/b", "g/c")))
    spans = [a, b, c, d]
    spans += task_spans("t.a", 0.0, [("agent_queue", 2.0), ("execute", 8.0)],
                        node=a)
    spans += task_spans("t.b", 10.0, [("agent_queue", 1.0),
                                      ("execute", 19.0)], node=b)
    spans += task_spans("t.c", 10.0, [("stage_in", 2.0), ("execute", 3.0)],
                        node=c)
    spans += task_spans("t.d", 30.0, [("agent_queue", 1.0),
                                      ("execute", 2.0)], node=d)
    return CampaignAttribution.from_spans(spans, makespan=33.0)


def tasks_of(attr):
    """uid -> per-task phase breakdown, read off the attributed nodes."""
    return {t.uid: t for node in attr.nodes.values() for t in node.tasks}


class TestPhaseBreakdowns:
    def test_phases_sum_across_attempts(self):
        spans = task_spans("t.0", 0.0, [
            ("agent_queue", 1.0), ("execute", 2.0), ("recovery", 3.0),
            ("execute", 4.0)])
        attr = CampaignAttribution.from_spans(spans)
        task = tasks_of(attr)["t.0"]
        assert task.phases == {"agent_queue": 1.0, "execute": 6.0,
                               "recovery": 3.0}
        assert task.end - task.start == pytest.approx(10.0)

    def test_orphan_phase_spans_are_skipped(self):
        spans = task_spans("t.0", 0.0, [("execute", 5.0)])
        orphan = Span(99, 9999, 12345, "execute", "task", 0.0)
        orphan.end = 50.0
        attr = CampaignAttribution.from_spans(spans + [orphan])
        assert tasks_of(attr)["t.0"].phases == {"execute": 5.0}

    def test_open_spans_count_as_zero_length(self):
        root = Span(1, next(_ids), None, "t.0", "task", 0.0)  # never closed
        attr = CampaignAttribution.from_spans([root])
        task = tasks_of(attr)["t.0"]
        assert task.end - task.start == 0.0 and task.phases == {}

    def test_non_task_categories_are_ignored(self):
        node = Span(1, next(_ids), None, "g/a", "campaign_node", 0.0)
        node.end = 10.0
        attr = CampaignAttribution.from_spans(
            [node] + task_spans("t.0", 0.0, [("execute", 5.0)]))
        assert set(tasks_of(attr)) == {"t.0"}

    def test_phase_totals_aggregate_nodes(self):
        attr = diamond()
        totals = attr.phase_totals()
        assert totals["execute"] == pytest.approx(8 + 19 + 3 + 2)
        assert totals["agent_queue"] == pytest.approx(2 + 1 + 1)
        assert totals["stage_in"] == pytest.approx(2.0)


class TestCriticalPath:
    def test_diamond_walks_the_slow_arm(self):
        attr = diamond()
        assert [s.key for s in attr.critical_path()] == ["g/a", "g/b", "g/d"]

    def test_step_durations_tile_the_makespan(self):
        steps = diamond().critical_path()
        assert steps[0].duration == pytest.approx(10.0)
        assert steps[1].duration == pytest.approx(20.0)
        assert steps[2].duration == pytest.approx(3.0)
        assert sum(s.duration for s in steps) == pytest.approx(33.0)
        # b started at t=10, entered at a's end t=10: no inter-node wait
        assert steps[1].wait == 0.0

    def test_dominant_phases_on_path(self):
        steps = {s.key: s for s in diamond().critical_path()}
        assert steps["g/b"].dominant_phase == "execute"
        assert steps["g/b"].phase_s == pytest.approx(19.0)
        phases = diamond().critical_path_phases()
        assert max(phases, key=phases.get) == "execute"

    def test_top_contributors_ordering(self):
        top = diamond().top_contributors(2)
        assert [s.key for s in top] == ["g/b", "g/a"]

    def test_inter_node_wait_is_attributed(self):
        a, b = node_span("g/a"), node_span("g/b", ("g/a",))
        spans = [a, b] + task_spans("t.a", 0.0, [("execute", 5.0)], node=a)
        spans += task_spans("t.b", 8.0, [("execute", 2.0)], node=b)  # 3s gap
        attr = CampaignAttribution.from_spans(spans)
        step = attr.critical_path()[-1]
        assert step.key == "g/b"
        assert step.wait == pytest.approx(3.0)
        assert step.duration == pytest.approx(5.0)

    def test_cycle_in_edges_terminates(self):
        a, b = node_span("a", ("b",)), node_span("b", ("a",))
        spans = [a, b] + task_spans("t.a", 0.0, [("execute", 1.0)], node=a)
        spans += task_spans("t.b", 1.0, [("execute", 1.0)], node=b)
        attr = CampaignAttribution.from_spans(spans)
        keys = [s.key for s in attr.critical_path()]
        assert keys == ["a", "b"]  # seen-set stops the walk
        assert attr.what_if() > 0.0  # longest path terminates too


class TestWhatIf:
    def test_projection_suite_is_sound(self):
        attr = diamond()
        projections = attr.projections()
        assert set(projections) == {"dependencies_only", "infinite_nodes",
                                    "zero_cost_transfers", "no_recovery"}
        for p in projections.values():
            assert p.valid and p.bound <= attr.makespan + 1e-6
        assert attr.validate() == []

    def test_bounds_shrink_with_dropped_phases(self):
        attr = diamond()
        full = attr.what_if()
        # chain a(10) -> b(20) -> d(3)
        assert full == pytest.approx(33.0)
        assert attr.what_if(WAIT_PHASES) == pytest.approx(8 + 19 + 2)
        assert attr.what_if(TRANSFER_PHASES) == pytest.approx(full)
        assert attr.what_if(RECOVERY_PHASES) == pytest.approx(full)
        # dropping everything leaves nothing
        drop = WAIT_PHASES | TRANSFER_PHASES | RECOVERY_PHASES \
            | {"submit", "schedule", "execute", "stage_out"}
        assert attr.what_if(drop) == 0.0

    def test_unknown_phase_raises(self):
        with pytest.raises(ValueError, match="unknown phases"):
            diamond().what_if({"teleport"})

    def test_node_weight_is_slowest_task(self):
        node = NodeAttribution("n", tasks=[
            TaskPhases("t.0", 0.0, 5.0, {"execute": 5.0}),
            TaskPhases("t.1", 0.0, 9.0, {"execute": 9.0}),
        ])
        assert node.weight() == 9.0
        assert node.weight(frozenset({"execute"})) == 0.0

    def test_truncated_task_falls_back_to_span_extent(self):
        # a root with no surviving phase spans still bounds via its extent
        task = TaskPhases("t.0", 0.0, 7.0, {})
        assert task.kept() == 7.0
        assert task.kept(WAIT_PHASES) == 0.0  # but drops to 0 under drops


def recursive_what_if(attr, drop=()):
    """:meth:`CampaignAttribution.what_if` as it was written with a
    recursive resolve (one Python frame per dependency level), kept as the
    reference of the iterative walk."""
    drop = frozenset(drop)
    finish = {}

    def resolve(key):
        cached = finish.get(key)
        if cached is not None:
            return cached
        finish[key] = 0.0  # cycle guard: partial data cannot recurse
        ready = max((resolve(d) for d in attr.edges.get(key, ())),
                    default=0.0)
        value = ready + attr.nodes[key].weight(drop)
        finish[key] = value
        return value

    return max((resolve(key) for key in attr.nodes), default=0.0)


#: phase seconds: mostly small whole numbers, so that paths tie and cross,
#: with the odd zero of either sign and NaN, whose ``max`` is order-bound
_SECONDS = [1.0, 2.0, 3.0, 4.0, 5.0, 2.5, 0.0, -0.0, float("nan")]


def random_attribution(rng):
    """One to eight nodes of one to three tasks with random phase mixes,
    random edges (self-loops, cycles, repeated and unknown keys) and a
    random set of dropped phases."""
    keys = rng.sample("abcdefgh", rng.randint(1, 8))
    nodes = {}
    for key in keys:
        tasks = []
        for i in range(rng.randint(1, 3)):
            phases = {rng.choice(PHASES): rng.choice(_SECONDS)
                      for _ in range(rng.randint(0, 3))}
            start = rng.uniform(0.0, 10.0)
            tasks.append(TaskPhases(f"{key}.{i}", start,
                                    start + rng.uniform(0.0, 10.0), phases))
        nodes[key] = NodeAttribution(key, tasks)
    edges = {key: tuple(rng.choice(keys + ["zz"])
                        for _ in range(rng.randint(0, 4)))
             for key in keys + ["zz"] if rng.random() < 0.9}
    drop = frozenset(p for p in PHASES if rng.random() < 0.2)
    return CampaignAttribution(nodes, edges, makespan=1.0), drop


class TestIterativeWhatIf:
    def test_the_walk_gives_the_recursive_values(self):
        # cycle-guard values included: a node on the path reads as 0.0,
        # so which node the walk enters first decides what the others read
        rng = random.Random(51)
        for _ in range(5000):
            attr, drop = random_attribution(rng)
            assert repr(attr.what_if(drop)) == repr(
                recursive_what_if(attr, drop)), (attr.edges, drop)

    def test_a_deep_chain_resolves(self):
        # each node depends on the next one the constructor was given, so
        # the walk descends the whole chain from the first key
        n = 3000
        nodes = {f"n{i}": NodeAttribution(f"n{i}", [
            TaskPhases(f"t{i}", float(i), float(i) + 1.0, {"execute": 1.0})])
            for i in range(n)}
        edges = {f"n{i}": (f"n{i + 1}",) for i in range(n - 1)}
        attr = CampaignAttribution(nodes, edges)
        assert attr.what_if() == float(n)
        assert attr.what_if({"execute"}) == 0.0


class TestGracefulDegradation:
    def test_empty_input(self):
        attr = CampaignAttribution.from_spans([])
        assert attr.critical_path() == []
        assert attr.what_if() == 0.0
        assert attr.validate() == []
        assert "Performance attribution" in attr.report()

    def test_edges_to_missing_nodes_are_pruned(self):
        # g/ghost never ran (skipped, or a truncated history): no span
        b = node_span("g/b", ("g/ghost",))
        spans = [b] + task_spans("t.b", 0.0, [("execute", 2.0)], node=b)
        attr = CampaignAttribution.from_spans(spans)
        assert attr.edges == {"g/b": ()}
        assert [s.key for s in attr.critical_path()] == ["g/b"]

    def test_nodes_without_tasks_drop_out(self):
        a, b = node_span("g/a"), node_span("g/b", ("g/a",))
        spans = [a, b] + task_spans("t.b", 0.0, [("execute", 2.0)], node=b)
        attr = CampaignAttribution.from_spans(spans)
        assert set(attr.nodes) == {"g/b"}
        assert attr.edges == {"g/b": ()}

    def test_report_renders_on_partial_data(self):
        text = diamond().report(title="diamond")
        assert "critical path" in text
        assert "what-if makespan lower bounds" in text
        assert "INVALID" not in text


class TestFromTracer:
    @pytest.fixture
    def run(self):
        with Session(seed=5, observability=ObservabilityConfig(
                sample_interval_s=10.0)) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            graph = CampaignGraph(name="g", nodes=[
                TaskNode(name="a", build=lambda c: [TaskDescription(
                    name="a0", executable="sim", duration_s=5.0)]),
                TaskNode(name="b", deps=("a",), build=lambda c: [
                    TaskDescription(name="b0", executable="sim",
                                    duration_s=20.0)]),
                TaskNode(name="c", deps=("a",), build=lambda c: [
                    TaskDescription(name="c0", executable="sim",
                                    duration_s=2.0)]),
                TaskNode(name="d", deps=("b", "c"), build=lambda c: [
                    TaskDescription(name="d0", executable="sim",
                                    duration_s=3.0)]),
            ])
            runner = session.campaign_runner(tmgr)
            proc = session.engine.process(runner.run_campaign([graph]))
            session.run(until=proc)
            makespan = session.now
            session.quiesce()
            session.run()
            yield session, makespan

    def test_edges_and_nodes_recovered_from_span_attrs(self, run):
        session, makespan = run
        attr = session.attribution(makespan=makespan)
        assert set(attr.nodes) == {"g/a", "g/b", "g/c", "g/d"}
        assert set(attr.edges["g/d"]) == {"g/b", "g/c"}
        assert [s.key for s in attr.critical_path()] \
            == ["g/a", "g/b", "g/d"]
        assert attr.validate() == []

    def test_execute_dominates_the_slow_node(self, run):
        session, makespan = run
        attr = session.attribution(makespan=makespan)
        name, seconds = attr.nodes["g/b"].dominant_phase()
        assert name == "execute"
        # nominal 20s of compute plus modeled launch/cleanup overheads
        assert 20.0 <= seconds < 25.0

    def test_tasks_outside_campaigns_become_singletons(self):
        with Session(seed=5, observability=ObservabilityConfig()) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=1, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            tasks = tmgr.submit_tasks([TaskDescription(
                executable="sim", duration_s=4.0)])
            session.run(until=tmgr.wait_tasks(tasks))
            attr = session.attribution()
            assert set(attr.nodes) == {tasks[0].uid}
            assert attr.edges == {}
