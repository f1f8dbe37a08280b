"""The process-per-entity campaign / data path, kept as the test oracle.

Lifted from the commit before campaign nodes, windowed starts and staged
directives became records: one ``_run_node`` process per node with a
``done`` event each, one ``_feed_window`` process per windowed
``submit_tasks`` call blocking in the generator ``SubmissionWindow.acquire``,
and one ``_stage_one`` process per staging directive joined by ``AllOf`` --
each directive the generator it was before staging became landings (a ride
is a ``yield`` on the in-flight event, a move a ``yield`` on an event the
transfer's landing resolves), the call itself a ``Routine``.  The
equivalence property in ``tests/test_properties.py`` runs one drawn
campaign through :func:`reference_stack` and through the shipped classes and
demands the same outcome, row for row.

Everything *below* these drivers (task path, agent, executor, data
services, transfers, fabric, engine) is the shipped code on both sides.
The reference directives keep no metrics and open no transfer spans.
"""

from collections import deque
from typing import Any, Dict, List

from repro.data.transfers import Transfer, TransferAborted
from repro.pilot.data_manager import DataManager
from repro.pilot.description import TaskDescription
from repro.pilot.task import Task
from repro.pilot.task_manager import TaskManager
from repro.sim.events import Interrupt, Routine
from repro.workflows.campaign import (
    CampaignGraph,
    CampaignRunner,
    NodeRunner,
)


class ReferenceWindow:
    """``SubmissionWindow`` with the generator ``acquire`` and wake-up events."""

    def __init__(self, engine, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("window capacity must be >= 1")
        self.engine = engine
        self.capacity = capacity
        self.in_flight = 0
        self.peak = 0
        self._waiters: deque = deque()   # (event, n) in arrival order

    def _note_peak(self) -> None:
        if self.in_flight > self.peak:
            self.peak = self.in_flight

    def acquire(self, n: int = 1):
        n = min(n, self.capacity)
        if not self._waiters and self.in_flight + n <= self.capacity:
            self.in_flight += n
            self._note_peak()
            return
        event = self.engine.event()
        self._waiters.append((event, n))
        yield event  # the slots were reserved by release() before the wake

    def release(self, n: int = 1) -> None:
        self.in_flight -= n
        while self._waiters and \
                self.in_flight + self._waiters[0][1] <= self.capacity:
            event, need = self._waiters.popleft()
            self.in_flight += need
            self._note_peak()
            event.succeed(None)


def _land(event, error):
    """A transfer's landing resolving *event* (a failure is the waiter's)."""
    if error is None:
        event.succeed()
    else:
        event.fail(error).defuse()


class ReferenceDataManager(DataManager):
    """``stage`` as a fan-out of one child process per directive."""

    def stage(self, directives, task_platform, uid, phase, staging):
        staging.manager = self
        driver = self._drivers[staging] = Routine(
            self.session.engine,
            self._fan_out(directives, task_platform, uid, phase),
            self._driven, staging)
        driver.start()

    def _driven(self, staging, ok, value):
        del self._drivers[staging]
        if ok or not isinstance(value, Interrupt):  # else: cancelled
            staging.then(staging.arg, None if ok else value)

    def _withdraw(self, staging):
        self._drivers[staging].throw(Interrupt("cancelled"))

    def _fan_out(self, directives, task_platform: str, uid: str, phase: str):
        engine = self.session.engine
        profiler = self.session.profiler
        directives = list(directives)
        profiler.record(engine.now, uid, f"{phase}_start", self.uid)
        procs = [engine.process(self._stage_one(d, task_platform, phase, uid))
                 for d in directives]
        try:
            if procs:
                outcomes = yield engine.all_of(procs)
                errors = [v for v in outcomes.values()
                          if isinstance(v, BaseException)]
                if errors:
                    raise errors[0]
        except Interrupt:
            for proc in procs:
                if proc.is_alive:
                    proc.interrupt("staging cancelled")
            raise
        finally:
            profiler.record(engine.now, uid, f"{phase}_stop", self.uid)
        return len(directives)

    def _stage_one(self, directive, task_platform: str, phase: str,
                   owner_uid: str = ""):
        try:
            yield from self._perform(directive, task_platform, phase)
            return None
        except BaseException as exc:
            return exc

    def _perform(self, directive, task_platform: str, phase: str):
        """Resolve one directive: free link, warm hit, dedup wait or move."""
        data = self.data
        if directive.action == "link":
            self.links_total += 1
            return
        src, dst = self._endpoints(directive, task_platform, phase)
        obj = data.intern(directive.source or directive.target,
                          directive.size_bytes)
        if phase != "stage_out":
            while True:
                if data.holds(dst, obj.oid):  # warm replica: free
                    data.touch(dst, obj.oid)
                    self.cache_hits += 1
                    self.bytes_saved += obj.size_bytes
                    return
                pending = data.inflight.get((obj.oid, dst))
                if pending is None or not data.config.dedup_inflight:
                    break
                try:
                    yield pending  # ride the in-flight transfer
                except TransferAborted:
                    continue  # the owner was cancelled: try again ourselves
                self.dedup_hits += 1
                self.bytes_saved += obj.size_bytes
                return
        key = (obj.oid, dst) if phase != "stage_out" else None
        done = self.session.engine.event()
        if key is not None:
            data.inflight[key] = done
        try:
            self.cache_misses += 1
            source = self._best_source(src, dst, obj)
            landed = self.session.engine.event()
            move = Transfer(source, dst, obj.size_bytes, self.uid, _land,
                            landed)
            data.transfers.transfer(move)
            try:
                yield landed
            except Interrupt:
                move.cancel()  # free the link for survivors
                raise
            self.bytes_transferred += obj.size_bytes
            self.transfer_wait_s.append(self.session.engine.now
                                        - move.started)
            self._register(obj, src, dst, directive.action, phase)
            done.succeed()
        except Interrupt as exc:
            # riders must not inherit our cancellation: hand them a typed
            # abort so they retry the transfer themselves
            if not done.triggered:
                done.fail(TransferAborted(str(exc.cause or "cancelled")))
                done.defuse()
            raise
        except BaseException as exc:
            if not done.triggered:
                done.fail(exc)
                done.defuse()
            raise
        finally:
            if key is not None and data.inflight.get(key) is done:
                data.inflight.pop(key, None)


class ReferenceTaskManager(TaskManager):
    """``submit_tasks(window=)`` through a feeder process per call."""

    def __init__(self, session, *args, **kwargs) -> None:
        super().__init__(session, *args, **kwargs)
        # same object, same ``dmgr`` uid: only the staging driver differs
        self.data_manager.__class__ = ReferenceDataManager
        self.data_manager._drivers = {}  # Staging -> the Routine driving it

    def submit_tasks(self, descriptions, chunk_size=None, window=None,
                     on_complete=None) -> List[Task]:
        if isinstance(descriptions, TaskDescription):
            descriptions = [descriptions]
        descriptions = list(descriptions)
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if isinstance(window, int):
            window = ReferenceWindow(self.session.engine, window)
        uids = self.session.ids.generate_batch("task", len(descriptions))
        session = self.session
        tasks: List[Task] = []
        for desc, uid in zip(descriptions, uids):
            task = Task(session, desc, uid)
            task.owner = self
            for callback in self._callbacks:
                task.on_state(callback)
            if on_complete is not None:
                task.completed.callbacks.append(
                    lambda event, t=task: on_complete(t))
            if self._observability is not None:
                self._observability.task_submitted(task)
            self._tasks[uid] = task
            tasks.append(task)
        if not tasks:
            return tasks
        if window is not None:
            session.engine.process(
                self._feed_window(tasks, window, chunk_size or 1))
        elif chunk_size is None or chunk_size >= len(tasks):
            self._start(tasks[:])
        else:
            session.engine.process(self._feed_chunks(tasks, chunk_size))
        return tasks

    def _feed_window(self, tasks, window, chunk_size):
        chunk_size = min(chunk_size, window.capacity)

        def release(event):
            window.release()

        for lo in range(0, len(tasks), chunk_size):
            chunk = [t for t in tasks[lo:lo + chunk_size]
                     if not (t.completed.triggered or t.is_final)]
            if not chunk:
                continue  # cancelled while queued behind the window
            yield from window.acquire(len(chunk))
            started = []
            for task in chunk:
                if task.completed.triggered or task.is_final:
                    window.release()  # cancelled while we waited for slots
                    continue
                task.completed.callbacks.append(release)
                started.append(task)
            if started:
                self._start(started)


class _GraphState:
    __slots__ = ("graph", "context", "status", "done", "failures")

    def __init__(self, graph: CampaignGraph, context: Dict[str, Any],
                 engine) -> None:
        self.graph = graph
        self.context = context
        #: node -> "done" | "failed" | "skipped" | "aborted" (absent = live)
        self.status: Dict[str, str] = {}
        #: node -> engine event succeeding (never failing) on settlement
        self.done = {name: engine.event() for name in graph.nodes}
        self.failures: List[BaseException] = []


class _CampaignRun:
    __slots__ = ("states", "camp_span", "frontier_gauge", "nodes_counter")

    def __init__(self, states: Dict[str, _GraphState]) -> None:
        self.states = states
        self.camp_span = None
        self.frontier_gauge = None
        self.nodes_counter = None


class ReferenceCampaignRunner(CampaignRunner):
    """One process per node, joined by per-node ``done`` events."""

    def __init__(self, session, task_manager, window=None) -> None:
        super().__init__(session, task_manager, window=None)
        if window is not None:
            self.window = ReferenceWindow(session.engine, window)
        #: per-graph state of the last run (what the property compares)
        self.states: Dict[str, _GraphState] = {}

    def run_campaign(self, graphs, contexts=None):
        single = isinstance(graphs, CampaignGraph)
        graphs = [graphs] if single else list(graphs)
        if not graphs:
            raise ValueError("run_campaign needs at least one graph")
        names = [g.name for g in graphs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate graph names in campaign: {names}")
        if isinstance(contexts, dict):
            contexts = [contexts]
        contexts = (list(contexts) if contexts is not None
                    else [{} for _ in graphs])
        if len(contexts) != len(graphs):
            raise ValueError("contexts must align with graphs")

        engine = self.session.engine
        profiler = self.session.profiler
        uid = self.session.ids.generate("campaign")

        self.node_tasks = {}
        run = _CampaignRun({g.name: _GraphState(g, ctx, engine)
                            for g, ctx in zip(graphs, contexts)})
        self.states = run.states

        obs = self.session.observability
        if obs is not None:
            if obs.tracer is not None:
                run.camp_span = obs.tracer.start_span(
                    uid, "campaign",
                    attrs={"graphs": names,
                           "nodes": sum(len(g) for g in graphs)})
            if obs.metrics is not None:
                run.frontier_gauge = obs.metrics.gauge(
                    "campaign_frontier_size", {"campaign": uid})
                run.nodes_counter = obs.metrics.counter(
                    "campaign_nodes_completed_total", {"campaign": uid})

        profiler.record(engine.now, uid, "campaign_start", "workflow")
        procs = []
        for graph in graphs:
            state = run.states[graph.name]
            prefix = uid if single else f"{uid}.{graph.name}"
            for name in graph.topological_order():
                procs.append(engine.process(self._run_node(
                    run, state, graph.nodes[name], f"{prefix}.{name}")))
        try:
            try:
                yield engine.all_of(procs)
            except Interrupt:
                for proc in procs:
                    if proc.is_alive:
                        proc.interrupt("campaign interrupted")
                raise
            failures = [exc for state in run.states.values()
                        for exc in state.failures]
            if failures:
                raise failures[0]
        finally:
            if run.camp_span is not None:
                obs.tracer.end_span(run.camp_span)
        profiler.record(engine.now, uid, "campaign_stop", "workflow")
        return contexts[0] if single else contexts

    def _run_node(self, run, state, node, node_uid):
        engine = self.session.engine
        profiler = self.session.profiler
        obs = self.session.observability
        tracer = obs.tracer if obs is not None else None
        graph = state.graph
        done = state.done[node.name]
        key = f"{graph.name}/{node.name}"
        span = None
        live = False
        try:
            if node.deps:
                yield engine.all_of([state.done[d] for d in node.deps])
            if any(state.status.get(d) != "done" for d in node.deps):
                state.status[node.name] = "skipped"
                done.succeed("skipped")
                return
            profiler.record(engine.now, node_uid, "node_start", "workflow")
            live = True
            if run.frontier_gauge is not None:
                run.frontier_gauge.inc()
            if tracer is not None:
                span = tracer.start_span(
                    key, "campaign_node", parent=run.camp_span,
                    attrs={"graph": graph.name,
                           "deps": [f"{graph.name}/{d}"
                                    for d in node.deps]})
                self._node_spans[key] = span
            if node.run is not None:
                yield from node.run(NodeRunner(self, key), state.context)
            else:
                descriptions = node.build(state.context)
                tasks = yield from self.submit_and_wait(
                    descriptions, node.failure_tolerance, node=key)
                if node.collect is not None:
                    node.collect(state.context, tasks)
            state.status[node.name] = "done"
            profiler.record(engine.now, node_uid, "node_stop", "workflow")
            if run.nodes_counter is not None:
                run.nodes_counter.inc()
            done.succeed("done")
        except Interrupt:
            state.status.setdefault(node.name, "aborted")
            if not done.triggered:
                done.succeed("aborted")
        except Exception as exc:
            state.status[node.name] = "failed"
            state.failures.append(exc)
            profiler.record(engine.now, node_uid, "node_stop", "workflow")
            if not done.triggered:
                done.succeed("failed")
        finally:
            if span is not None:
                span.set_attr("status", state.status.get(node.name))
                tracer.end_span(span)
                self._node_spans.pop(key, None)
            if live and run.frontier_gauge is not None:
                run.frontier_gauge.dec()
