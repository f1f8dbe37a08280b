"""The streaming campaign engine: dataflow graphs, backpressure,
multi-graph campaigns and the ported use-case graphs."""

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    Session,
    TaskManager,
)
from repro.analytics import campaign_metrics
from repro.pilot.description import TaskDescription
from repro.pilot.task_manager import SubmissionWindow
from repro.workflows import (
    CampaignGraph,
    CampaignRunner,
    StageFailure,
    TaskNode,
    failed_tasks,
)


@pytest.fixture
def env():
    with Session(seed=23) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        yield session, tmgr


def sim_task(name, duration, **kwargs):
    return TaskDescription(name=name, executable="sim",
                           duration_s=float(duration), **kwargs)


def run_graphs(session, runner, graphs, **kwargs):
    proc = session.engine.process(runner.run_campaign(graphs, **kwargs))
    return session.run(until=proc)


class TestGraphValidation:
    def test_node_requires_exactly_one_mode(self):
        with pytest.raises(ValueError):
            TaskNode(name="bad")
        with pytest.raises(ValueError):
            TaskNode(name="bad", build=lambda c: [],
                     run=lambda r, c: iter(()))

    def test_duplicate_nodes_rejected(self):
        node = TaskNode(name="a", build=lambda c: [])
        with pytest.raises(ValueError, match="duplicate"):
            CampaignGraph(name="g", nodes=[node, node])

    def test_unknown_dependency_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            CampaignGraph(name="g", nodes=[
                TaskNode(name="a", deps=("ghost",), build=lambda c: [])])

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            CampaignGraph(name="g", nodes=[
                TaskNode(name="a", deps=("b",), build=lambda c: []),
                TaskNode(name="b", deps=("a",), build=lambda c: [])])

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError, match="no nodes"):
            CampaignGraph(name="g", nodes=[])

    def test_topological_order_respects_deps(self):
        graph = CampaignGraph(name="g", nodes=[
            TaskNode(name="z", deps=("a", "b"), build=lambda c: []),
            TaskNode(name="a", build=lambda c: []),
            TaskNode(name="b", deps=("a",), build=lambda c: [])])
        order = graph.topological_order()
        assert order.index("a") < order.index("b") < order.index("z")

    def test_pipeline_lowering_is_a_chain(self):
        # a stage sequence is the chain graph: stage k+1 deps=(stage k,)
        from repro.workflows import (
            build_cell_painting_pipeline,
            build_signature_pipeline,
            build_uq_pipeline,
        )
        for build, n_stages in ((build_cell_painting_pipeline, 2),
                                (build_signature_pipeline, 3),
                                (build_uq_pipeline, 3)):
            graph = build()
            stages = [node.name for node in graph]
            assert len(stages) == n_stages
            assert graph.topological_order() == stages
            assert [node.deps for node in graph] == \
                [()] + [(name,) for name in stages[:-1]]
            assert [row["stage"] for row in graph.table_rows()] == stages

    def test_toposort_is_linear_in_the_width_of_the_ready_list(self):
        # 20,000 roots feeding 20,000 leaves: a quadratic pop-from-the-front
        # takes seconds here; FIFO order (roots first, then each node as its
        # last input is placed) is unchanged
        import time
        n = 20_000
        nodes = [TaskNode(name=f"r{i}", build=lambda c: []) for i in range(n)]
        nodes += [TaskNode(name=f"l{i}", deps=(f"r{i}", f"r{(i + 1) % n}"),
                           build=lambda c: []) for i in range(n)]
        t0 = time.perf_counter()
        graph = CampaignGraph(name="wide", nodes=nodes)
        elapsed = time.perf_counter() - t0
        order = graph.topological_order()
        assert order[:n] == [f"r{i}" for i in range(n)]
        assert order[n:] == [f"l{i}" for i in range(n)]
        assert elapsed < 1.0


class TestStreamingExecution:
    def diamond(self):
        """a -> (b, c) -> d with a slow b: c must not wait for b."""
        def node(name, duration, deps=()):
            def build(ctx):
                return [sim_task(f"t-{name}", duration)]

            def collect(ctx, tasks):
                ctx.setdefault("done_at", {})[name] = \
                    tasks[0].session.engine.now
                ctx.setdefault("uids", {})[name] = tasks[0].uid
            return TaskNode(name=name, deps=deps, build=build,
                            collect=collect)

        return CampaignGraph(name="diamond", nodes=[
            node("a", 5.0),
            node("b", 50.0, deps=("a",)),
            node("c", 5.0, deps=("a",)),
            node("d", 5.0, deps=("b", "c"))])

    def test_streaming_runs_ready_nodes_immediately(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        context = run_graphs(session, runner, self.diamond())
        # c finished long before the straggler b: no barrier between them
        assert context["done_at"]["c"] < context["done_at"]["b"]
        # d still waited for both of its inputs
        assert context["done_at"]["d"] > context["done_at"]["b"]

    def test_campaign_tracks_node_tasks(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        run_graphs(session, runner, self.diamond())
        assert set(runner.node_tasks) == {
            "diamond/a", "diamond/b", "diamond/c", "diamond/d"}
        assert sum(map(len, runner.node_tasks.values())) == 4

    def test_multiple_graphs_stream_in_one_campaign(self, env):
        session, tmgr = env

        def chain(gname, duration):
            def node(i, deps=()):
                def build(ctx):
                    return [sim_task(f"{gname}-{i}", duration)]

                def collect(ctx, tasks):
                    ctx.setdefault("order", []).append(i)
                    ctx["done_at"] = tasks[0].session.engine.now
                return TaskNode(name=f"n{i}", deps=deps, build=build,
                                collect=collect)
            return CampaignGraph(name=gname, nodes=[
                node(0), node(1, deps=("n0",)), node(2, deps=("n1",))])

        runner = CampaignRunner(session, tmgr)
        fast = chain("fast", 1.0)
        slow = chain("slow", 40.0)
        contexts = run_graphs(session, runner, [fast, slow])
        assert [c["order"] for c in contexts] == [[0, 1, 2], [0, 1, 2]]
        # the fast graph finished while the slow one was still on its
        # first node: the graphs interleave instead of running in series
        assert contexts[0]["done_at"] < 40.0 < contexts[1]["done_at"]

    def test_concurrent_campaigns_on_one_runner_do_not_interfere(self, env):
        """Run state is scoped per run_campaign invocation: two graphs
        driven concurrently through one shared runner keep independent
        failure accounting."""
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)

        def boom():
            raise RuntimeError("first pipeline fails")

        failing = CampaignGraph(name="failing", nodes=[
            TaskNode(name="bad", build=lambda c: [
                TaskDescription(name="bad", function=boom)])])
        healthy = CampaignGraph(name="healthy", nodes=[
            TaskNode(name="slow", build=lambda c: [sim_task("slow", 30.0)],
                     collect=lambda c, t: c.update(ok=True))])

        # start the slow healthy campaign first, then the failing one
        healthy_proc = session.engine.process(runner.run_campaign(healthy))
        failing_proc = session.engine.process(runner.run_campaign(failing))
        with pytest.raises(StageFailure):
            session.run(until=failing_proc)
        context = session.run(until=healthy_proc)
        assert context["ok"]  # the failure did not leak into this run

    def test_duplicate_graph_names_rejected(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        graph = self.diamond()
        with pytest.raises(ValueError, match="duplicate graph names"):
            run_graphs(session, runner, [graph, graph])

    def test_custom_node_runner_surface(self, env):
        """Custom run nodes get submit_and_wait; a submission under the
        campaign window without waiting joins the node's bookkeeping too."""
        session, tmgr = env

        def run(runner, ctx):
            early = runner._campaign.submit([sim_task("early", 30.0)],
                                            node=runner._key)
            tasks = yield from runner.submit_and_wait(
                [sim_task(f"bag-{i}", 2.0) for i in range(3)])
            ctx["bag_done_at"] = runner.session.engine.now
            yield runner.tmgr.wait_tasks(early)
            ctx["early"] = early[0].state

        graph = CampaignGraph(name="custom", nodes=[
            TaskNode(name="only", run=run)])
        runner = CampaignRunner(session, tmgr)
        context = run_graphs(session, runner, graph)
        assert context["early"] == "DONE"
        assert context["bag_done_at"] < 30.0  # bag did not wait for early
        assert len(runner.node_tasks["custom/only"]) == 4

    def test_campaign_profiler_events(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        run_graphs(session, runner, self.diamond())
        prof = session.profiler
        (uid,) = prof.uids_with_event("campaign_start")
        assert prof.timestamp(uid, "campaign_stop") is not None
        assert prof.duration(f"{uid}.b", "node_start", "node_stop") >= 50.0


class TestFailurePropagation:
    def failing_graph(self, tolerance=0.0):
        def boom():
            raise RuntimeError("node exploded")

        def build_bad(ctx):
            return [TaskDescription(name="bad", function=boom)]

        def collect(ctx, tasks):
            ctx["collected"] = [t.state for t in tasks]

        return CampaignGraph(name="failing", nodes=[
            TaskNode(name="bad", build=build_bad, collect=collect,
                     failure_tolerance=tolerance),
            TaskNode(name="downstream", deps=("bad",),
                     build=lambda c: [sim_task("after", 1.0)],
                     collect=lambda c, t: c.update(after="ran")),
            TaskNode(name="sibling",
                     build=lambda c: [sim_task("side", 1.0)],
                     collect=lambda c, t: c.update(sibling="ran"))])

    def test_failure_skips_downstream_but_not_siblings(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        proc = session.engine.process(
            runner.run_campaign(self.failing_graph(),
                                contexts=(context := {})))
        with pytest.raises(StageFailure):
            session.run(until=proc)
        assert context.get("after") is None     # downstream skipped
        assert context["sibling"] == "ran"      # sibling streamed through

    def test_tolerated_failure_flows_partial_results(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        context = run_graphs(session, runner, self.failing_graph(1.0))
        assert context["collected"] == ["FAILED"]
        assert context["after"] == "ran"

    def test_failed_tasks_excludes_tasks_mid_recovery(self, env):
        """The failure_tolerance bugfix: a FAILED task whose recovery is
        still pending (not final, completion unfired) and a RESCHEDULING
        task must not count as stage failures."""
        session, tmgr = env
        from repro.pilot.states import TaskState
        tasks = tmgr.submit_tasks(
            [TaskDescription(name=f"t{i}", executable="x", duration_s=1.0)
             for i in range(4)])
        session.run(until=tmgr.wait_tasks(tasks[:1]))
        done = tasks[0]
        # a FAILED task whose recovery decision is pending: final-looking
        # state, but its completion event has not fired
        recovering = tmgr.submit_tasks(TaskDescription(name="r",
                                                       executable="x"))[0]
        recovering.advance(TaskState.TMGR_SCHEDULING, "test")
        recovering.advance(TaskState.FAILED, "test")       # not sealed
        rescheduling = tmgr.submit_tasks(TaskDescription(name="q",
                                                         executable="x"))[0]
        rescheduling.advance(TaskState.TMGR_SCHEDULING, "test")
        rescheduling.advance(TaskState.FAILED, "test")
        rescheduling.advance(TaskState.RESCHEDULING, "test")
        sealed = tmgr.submit_tasks(TaskDescription(name="s",
                                                   executable="x"))[0]
        sealed.advance(TaskState.TMGR_SCHEDULING, "test")
        sealed.finish(TaskState.FAILED, "test")
        probe = [done, recovering, rescheduling, sealed]
        assert failed_tasks(probe) == [sealed]

    @pytest.mark.parametrize("where", ["build", "collect", "run"])
    def test_raising_user_code_fails_the_node_not_the_engine(self, env,
                                                             where):
        session, tmgr = env

        def boom(*args):
            raise KeyError(f"{where} raised")

        def run(runner, ctx):
            yield runner.session.engine.timeout(1.0)
            boom()

        bad = {"build": TaskNode(name="bad", build=boom),
               "collect": TaskNode(name="bad", collect=boom,
                                   build=lambda c: [sim_task("t", 1.0)]),
               "run": TaskNode(name="bad", run=run)}[where]
        graph = CampaignGraph(name="g", nodes=[
            bad,
            TaskNode(name="downstream", deps=("bad",),
                     build=lambda c: [sim_task("after", 1.0)],
                     collect=lambda c, t: c.update(after="ran")),
            TaskNode(name="sibling", build=lambda c: [sim_task("side", 5.0)],
                     collect=lambda c, t: c.update(sibling="ran"))])
        runner = CampaignRunner(session, tmgr, window=1)
        proc = session.engine.process(
            runner.run_campaign(graph, contexts=(context := {})))
        with pytest.raises(KeyError, match=f"{where} raised"):
            session.run(until=proc)       # raised by run_campaign, at its end
        assert context == {"sibling": "ran"}
        prof = session.profiler
        (uid,) = prof.uids_with_event("campaign_start")
        assert prof.timestamp(f"{uid}.bad", "node_stop") is not None
        assert prof.timestamp(f"{uid}.downstream", "node_start") is None
        assert runner.window.in_flight == 0

    def test_interrupt_aborts_what_runs_and_ignores_late_completions(self):
        """Interrupting run_campaign throws into the live ``run=`` generator,
        settles every unsettled node ``aborted`` (spans closed, frontier
        gauge back to zero), starts nothing more -- and the build node's
        task, which nobody cancels, completes later without settling it."""
        from repro import ObservabilityConfig
        from repro.sim.events import Interrupt

        with Session(seed=23, observability=ObservabilityConfig(
                sample_interval_s=1.0)) as session:
            pmgr = PilotManager(session)
            tmgr = TaskManager(session)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
            tmgr.add_pilots(pilot)
            runner = CampaignRunner(session, tmgr, window=4)
            seen = {}

            def waiter(node_runner, ctx):
                try:
                    yield node_runner.session.engine.timeout(500.0)
                except Interrupt as exc:
                    seen["thrown"] = (exc.cause, session.now)
                    raise

            graph = CampaignGraph(name="torn", nodes=[
                TaskNode(name="bag", build=lambda c: [sim_task("t", 100.0)],
                         collect=lambda c, t: c.update(bag="collected")),
                TaskNode(name="waiter", run=waiter),
                TaskNode(name="after", deps=("bag",),
                         build=lambda c: [sim_task("late", 1.0)])])

            def campaign(context):
                try:
                    yield from runner.run_campaign(graph, contexts=context)
                except Interrupt:
                    return "interrupted"

            context = {}
            proc = session.engine.process(campaign(context))
            session.run(until=10.0)
            proc.interrupt("killed")
            session.run(until=11.0)
            assert proc.value == "interrupted"
            assert seen["thrown"] == ("campaign interrupted", 10.0)
            tracer = session.observability.tracer
            spans = {s.name: s for s in tracer.find(category="campaign_node")}
            assert set(spans) == {"torn/bag", "torn/waiter"}
            assert all(s.attrs["status"] == "aborted" and s.end is not None
                       for s in spans.values())
            ((task,),) = runner.node_tasks.values()
            assert not task.is_final  # still running: nobody cancelled it
            session.run(until=task.completed)
            session.run(until=session.now + 5.0)
            assert task.state == "DONE" and session.now > 100.0
            assert context == {}                 # never collected
            assert len(tmgr.tasks) == 1          # "after" never started
            assert runner.window.in_flight == 0  # the slot came back
            (frontier,) = session.observability.metrics.series_by_name(
                "campaign_frontier_size").values()
            assert frontier[-1][1] == 0.0

    def test_interrupt_tears_down_node_processes(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)

        def slow_node(name, deps=()):
            return TaskNode(name=name, deps=deps,
                            build=lambda c: [sim_task(name, 100.0)],
                            collect=lambda c, t: c.update({name: "done"}))

        graph = CampaignGraph(name="torn", nodes=[
            slow_node("a"), slow_node("b", deps=("a",))])
        from repro.sim.events import Interrupt

        def campaign(context):
            try:
                return (yield from runner.run_campaign(graph,
                                                       contexts=context))
            except Interrupt:
                return None

        context = {}
        proc = session.engine.process(campaign(context))
        session.run(until=10.0)
        proc.interrupt("killed")
        session.run()
        assert context.get("b") is None  # successor never started


class TestBackpressure:
    def test_campaign_window_bounds_in_flight(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr, window=2)
        graph = CampaignGraph(name="wide", nodes=[
            TaskNode(name="bag",
                     build=lambda c: [sim_task(f"w{i}", 2.0)
                                      for i in range(9)],
                     collect=lambda c, t: c.update(
                         states=[x.state for x in t]))])
        context = run_graphs(session, runner, graph)
        assert context["states"] == ["DONE"] * 9
        assert runner.window.peak <= 2
        assert runner.window.in_flight == 0

    def test_window_is_shared_across_nodes(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr, window=3)
        nodes = [TaskNode(name=f"n{i}",
                          build=lambda c, i=i: [sim_task(f"n{i}-{j}", 1.0)
                                                for j in range(4)])
                 for i in range(3)]
        run_graphs(session, runner, CampaignGraph(name="many", nodes=nodes))
        assert runner.window.peak <= 3

    def test_windowed_submission_beats_strict_chunks(self, env):
        """Sliding window overlaps chunk N+1 with chunk N's stragglers."""
        session, tmgr = env
        durations = [20.0, 1.0, 1.0, 1.0] * 4

        def run_with(**kwargs):
            tasks = tmgr.submit_tasks(
                [sim_task(f"x{i}", d) for i, d in enumerate(durations)],
                **kwargs)
            start = session.now
            session.run(until=tmgr.wait_tasks(tasks))
            return session.now - start

        chunked = run_with(chunk_size=4)
        windowed = run_with(chunk_size=4, window=4)
        assert windowed < chunked

    def test_submit_after_defers_driver_start(self, env):
        # a dependent submitted from the upstream completion's callback
        session, tmgr = env
        later = []
        (first,) = tmgr.submit_tasks(
            sim_task("first", 10.0),
            on_complete=lambda t: later.extend(
                tmgr.submit_tasks(sim_task("second", 1.0))))
        session.run(until=first.completed)
        (second,) = later
        session.run(until=tmgr.wait_tasks([first, second]))
        prof = session.profiler
        assert prof.timestamp(second.uid, "state:TMGR_SCHEDULING") >= \
            prof.timestamp(first.uid, "state:DONE")

    def test_on_complete_fires_per_task_completion(self, env):
        session, tmgr = env
        seen = []
        tasks = tmgr.submit_tasks(
            [sim_task(f"c{i}", float(3 - i)) for i in range(3)],
            on_complete=lambda t: seen.append(t.description.name))
        session.run(until=tmgr.wait_tasks(tasks))
        assert sorted(seen) == ["c0", "c1", "c2"]
        # completion order follows duration, not submission order
        assert seen[0] == "c2"

    def test_window_validation(self, env):
        session, tmgr = env
        with pytest.raises(ValueError):
            SubmissionWindow(session.engine, 0)


class TestCampaignMetrics:
    def test_overlap_and_idle_accounting(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        graph = CampaignGraph(name="m", nodes=[
            TaskNode(name="a", build=lambda c: [sim_task("a", 10.0)]),
            TaskNode(name="b", build=lambda c: [sim_task("b", 10.0)])])
        run_graphs(session, runner, graph)
        metrics = campaign_metrics(session, runner.node_tasks,
                                   total_cores=128)
        assert metrics.n_tasks == 2 and metrics.n_done == 2
        # launch jitter staggers the starts by a few hundred ms; the bulk
        # of the 10s executions overlaps
        assert metrics.overlap_fraction > 0.9
        assert metrics.peak_concurrency == 2
        assert metrics.busy_core_s == pytest.approx(20.0)
        assert 0.0 < metrics.idle_fraction < 1.0

    def test_serial_nodes_have_zero_overlap(self, env):
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        graph = CampaignGraph(name="m", nodes=[
            TaskNode(name="a", build=lambda c: [sim_task("a", 5.0)]),
            TaskNode(name="b", deps=("a",),
                     build=lambda c: [sim_task("b", 5.0)])])
        run_graphs(session, runner, graph)
        metrics = campaign_metrics(session, runner.node_tasks,
                                   total_cores=64)
        assert metrics.overlap_fraction == pytest.approx(0.0)
        assert metrics.peak_concurrency == 1

    def test_empty_groups_yield_nan_metrics(self, env):
        session, _ = env
        metrics = campaign_metrics(session, {}, total_cores=8)
        assert metrics.n_tasks == 0
        assert metrics.makespan_s == 0.0


def bag_node(name, sizes, deps=(), **kwargs):
    """A build node of ``sizes[name]`` sim tasks (read from the context
    when *sizes* is None) that records the task names it collects."""
    def build(ctx):
        n = ctx["sizes"][name] if sizes is None else sizes[name]
        return [sim_task(f"{name}-{i}", 1.0 + i) for i in range(n)]

    def collect(ctx, tasks):
        ctx.setdefault("shares", {})[name] = [
            t.description.name for t in tasks]
    return TaskNode(name=name, deps=deps, build=build, collect=collect,
                    **kwargs)


class TestBarriered:
    """``graph.barriered(stages)``: one chained node per dependency level."""

    def test_level_is_the_longest_chain(self, env):
        # the skip edge a -> c sits beside a -> b -> c: c is on level 2
        sizes = {"a": 1, "b": 2, "c": 1}
        graph = CampaignGraph(name="skip", nodes=[
            bag_node("a", sizes), bag_node("b", sizes, deps=("a",)),
            bag_node("c", sizes, deps=("a", "b"))])
        barrier = graph.barriered(["s0", "s1", "s2"])
        assert barrier.name == "skip"
        assert [(node.name, node.deps) for node in barrier] == [
            ("s0", ()), ("s1", ("s0",)), ("s2", ("s1",))]
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        context = run_graphs(session, runner, barrier)
        assert {key: [t.description.name for t in tasks]
                for key, tasks in runner.node_tasks.items()} == {
            "skip/s0": ["a-0"], "skip/s1": ["b-0", "b-1"],
            "skip/s2": ["c-0"]}
        assert context["shares"] == {"a": ["a-0"], "b": ["b-0", "b-1"],
                                     "c": ["c-0"]}

    def test_stage_count_must_match_the_levels(self):
        graph = CampaignGraph(name="g", nodes=[
            bag_node("a", {"a": 1}), bag_node("b", {"b": 1}, deps=("a",))])
        for stages in (["only"], ["s0", "s1", "s2"]):
            with pytest.raises(ValueError, match="2 levels"):
                graph.barriered(stages)

    @pytest.mark.parametrize("other", [
        dict(resource_type="GPU"), dict(as_service=True),
        dict(failure_tolerance=0.5)])
    def test_a_mixed_level_is_refused(self, other):
        sizes = {"a": 1, "b": 1}
        graph = CampaignGraph(name="g", nodes=[
            bag_node("a", sizes), bag_node("b", sizes, **other)])
        with pytest.raises(ValueError, match="mixes"):
            graph.barriered(["s0"])

    def test_a_run_node_must_be_alone_on_its_level(self):
        def run(runner, ctx):
            yield runner.session.engine.timeout(1.0)

        for second in (bag_node("b", {"b": 1}), TaskNode(name="b", run=run)):
            graph = CampaignGraph(name="g", nodes=[
                TaskNode(name="a", run=run), second])
            with pytest.raises(ValueError, match="mixes"):
                graph.barriered(["s0"])

    def test_a_lone_run_node_keeps_its_body(self, env):
        def run(runner, ctx):
            tasks = yield from runner.submit_and_wait(
                [sim_task("late", 2.0)])
            ctx["late"] = tasks[0].state

        graph = CampaignGraph(name="g", nodes=[
            bag_node("a", {"a": 2}),
            TaskNode(name="r", deps=("a",), resource_type="GPU",
                     as_service=True, run=run)])
        barrier = graph.barriered(["prep", "drive"])
        drive = barrier.nodes["drive"]
        assert drive.run is run and drive.build is None
        assert (drive.resource_type, drive.as_service) == ("GPU", True)
        session, tmgr = env
        context = run_graphs(session, CampaignRunner(session, tmgr), barrier)
        assert context["late"] == "DONE"

    def test_each_member_collects_its_own_share(self, env):
        # the empty member b still collects, with an empty share
        sizes = {"root": 1, "a": 2, "b": 0, "c": 3}
        graph = CampaignGraph(name="g", nodes=[
            bag_node("root", sizes)] + [
            bag_node(name, sizes, deps=("root",)) for name in "abc"])
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        context = run_graphs(session, runner, graph.barriered(["s0", "s1"]))
        assert [t.description.name for t in runner.node_tasks["g/s1"]] == \
            ["a-0", "a-1", "c-0", "c-1", "c-2"]
        assert context["shares"] == {
            "root": ["root-0"], "a": ["a-0", "a-1"], "b": [],
            "c": ["c-0", "c-1", "c-2"]}

    def test_concurrent_runs_keep_their_shares_apart(self, env):
        # one barriered graph, two campaigns on one runner, bag sizes read
        # from each run's context: both levels build before either collects
        graph = CampaignGraph(name="g", nodes=[
            bag_node("a", None), bag_node("b", None)]).barriered(["s0"])
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        first = {"sizes": {"a": 1, "b": 3}}
        second = {"sizes": {"a": 3, "b": 1}}
        procs = [session.engine.process(runner.run_campaign(graph, ctx))
                 for ctx in (first, second)]
        session.run(until=session.engine.all_of(procs))
        assert first["shares"] == {"a": ["a-0"], "b": ["b-0", "b-1", "b-2"]}
        assert second["shares"] == {"a": ["a-0", "a-1", "a-2"], "b": ["b-0"]}


class TestPortedUseCases:
    def test_signature_campaign_matches_pipeline(self, env):
        from repro.workflows import (
            SignatureConfig,
            build_signature_campaign,
            build_signature_pipeline,
        )

        config = SignatureConfig(n_samples=6, variants_per_sample=120,
                                 seed=4)
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        streamed = run_graphs(session, runner,
                              build_signature_campaign(config))["result"]

        with Session(seed=23) as session2:
            pmgr = PilotManager(session2)
            tmgr2 = TaskManager(session2)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
            tmgr2.add_pilots(pilot)
            wrunner = CampaignRunner(session2, tmgr2)
            proc = session2.engine.process(
                wrunner.run_campaign(build_signature_pipeline(config)))
            barriered = session2.run(until=proc)["result"]

        assert [a.sample_id for a in streamed.annotations] == \
            [a.sample_id for a in barriered.annotations]
        assert streamed.significant_by_sample == \
            barriered.significant_by_sample
        assert streamed.recovered_radiation_pathways == \
            barriered.recovered_radiation_pathways
        assert streamed.linear_fit.params == barriered.linear_fit.params

    def test_uq_campaign_matches_pipeline(self, env):
        from repro.workflows import (
            UQConfig,
            build_uq_campaign,
            build_uq_pipeline,
        )

        config = UQConfig(seeds=(0, 1), n_train=80, n_test=40)
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        streamed = run_graphs(session, runner,
                              build_uq_campaign(config))["result"]
        assert len(streamed.cells) == 2 * 2 * 2

        with Session(seed=23) as session2:
            pmgr = PilotManager(session2)
            tmgr2 = TaskManager(session2)
            (pilot,) = pmgr.submit_pilots(
                PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
            tmgr2.add_pilots(pilot)
            wrunner = CampaignRunner(session2, tmgr2)
            proc = session2.engine.process(
                wrunner.run_campaign(build_uq_pipeline(config)))
            barriered = session2.run(until=proc)["result"]

        key = lambda c: (c.model, c.method, c.seed)  # noqa: E731
        assert sorted(map(key, streamed.cells)) == \
            sorted(map(key, barriered.cells))
        assert [(r.model, r.method) for r in streamed.summary] == \
            [(r.model, r.method) for r in barriered.summary]
        for s, b in zip(streamed.summary, barriered.summary):
            assert s.accuracy_mean == pytest.approx(b.accuracy_mean)
            assert s.ece_mean == pytest.approx(b.ece_mean)

    def test_cell_painting_campaign_runs(self, env):
        from repro.workflows import (
            CellPaintingConfig,
            build_cell_painting_campaign,
        )

        config = CellPaintingConfig(
            n_shards=4, images_per_shard=4, image_size=16, n_trials=4,
            concurrent_trials=2, min_shards_to_train=2, trial_epochs=5)
        session, tmgr = env
        runner = CampaignRunner(session, tmgr)
        context = run_graphs(session, runner,
                             build_cell_painting_campaign(config))
        result = context["result"]
        assert result.n_trials == 4
        assert result.n_shards_total == 4

    def test_session_campaign_facade(self, env):
        session, tmgr = env
        runner = session.campaign_runner(tmgr, window=4)
        graph = CampaignGraph(name="facade", nodes=[
            TaskNode(name="only",
                     build=lambda c: [sim_task("t", 1.0)],
                     collect=lambda c, t: c.update(ok=True))])
        context = run_graphs(session, runner, graph)
        assert context["ok"]
        assert runner.window.capacity == 4
