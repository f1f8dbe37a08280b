"""Streaming campaign engine: dependency-driven dataflow execution.

A barrier-synchronized pipeline executes stage bags bulk-synchronously:
every task of stage *k* must finish before the first task of stage *k+1*
is even built, so a single straggler idles the whole allocation.  This
module replaces that execution model with a **dataflow campaign**:

* a :class:`TaskNode` is one node of a dependency DAG -- typically *one
  item* of a former stage (one sample, one shard, one grid cell) with
  explicit ``deps`` on the upstream nodes whose context entries it reads;
* a :class:`CampaignGraph` is a named, validated (acyclic, closed) set of
  nodes; its barrier pipeline is derived, not written:
  :meth:`CampaignGraph.barriered` is the chain graph with one node per
  dependency level (stage *k+1* ``deps=(stage k,)``) running the same
  tasks;
* the :class:`CampaignRunner` submits every node **the moment its inputs
  complete** -- no stage barriers -- runs *multiple graphs concurrently in
  one campaign*, applies global backpressure through a shared
  :class:`~repro.pilot.task_manager.SubmissionWindow`.

Per-node ``failure_tolerance`` and ``collect`` mean partial results flow
downstream immediately: a node folds its results into the shared context
as soon as *its* tasks finish, while sibling nodes are still computing.

**Nodes are records, not processes.**  A node that waits for its inputs is
a count (``_GraphState.waiting``: its unsettled dependencies); a running
``build`` node is a :class:`_LiveNode` whose one callback sits on every
``task.completed`` of its bag and counts them down, and the node *settles*
-- collect, status, profile row -- inside the kernel entry of its last
task's completion.  Only what genuinely waits is a generator: a ``run=``
node runs as a :class:`~repro.sim.events.Routine`, and
:meth:`CampaignRunner.run_campaign` itself waits on a single ``finished``
event.  A settled node launches each dependent it released through **one**
zero-delay landing, not inline: the same completion entry may free a
window slot, whose URGENT start landing (a sibling's cold stage-in drawing
from the fabric stream) has to run before a released ``run=`` node sends
its first request on that stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Generator,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..pilot.description import TaskDescription
from ..pilot.states import TaskState
from ..pilot.task import Task
from ..pilot.task_manager import SubmissionWindow, TaskManager
from ..sim.events import Event, Interrupt, Routine
from ..utils.log import get_logger

__all__ = [
    "StageFailure",
    "TaskNode",
    "CampaignGraph",
    "CampaignRunner",
    "failed_tasks",
]

log = get_logger("workflows.campaign")


class StageFailure(Exception):
    """Raised when a node's (or stage's) tasks fail beyond tolerance."""


def failed_tasks(tasks: Iterable[Task]) -> List[Task]:
    """Tasks that *finished* in a non-DONE state.

    Tasks still mid-recovery must not be double-counted as stage
    failures -- the resilience subsystem may yet bring them to DONE.
    That covers both shapes of an in-flight retry: a task parked in
    RESCHEDULING (not a final state) and a task sitting in FAILED whose
    recovery decision is still pending -- its completion event has not
    fired, which is the discriminator used here.
    """
    return [t for t in tasks
            if t.completed.triggered and t.state != TaskState.DONE]


def _check_tolerance(tasks: List[Task], failure_tolerance: float) -> None:
    """Raise :class:`StageFailure` if too many of a finished bag failed."""
    failed = failed_tasks(tasks)
    if len(failed) > failure_tolerance * len(tasks):
        first = failed[0]
        raise StageFailure(
            f"{len(failed)}/{len(tasks)} tasks failed "
            f"(first: {first.uid}: {first.exception})")


@dataclass
class TaskNode:
    """One node of a campaign dataflow graph.

    Either provide ``build`` (+ optional ``collect``) for a bag of task
    descriptions derived from the context, or ``run`` -- a generator
    function ``run(runner, context)`` that drives the node itself.  The
    node becomes runnable once every node named in ``deps`` completed
    successfully; if any dependency failed (or was skipped), the node is
    skipped.
    """

    name: str
    deps: Tuple[str, ...] = ()
    #: Table I metadata
    resource_type: str = "CPU"          # "CPU" | "GPU"
    as_service: bool = False
    #: declarative form
    build: Optional[Callable[[Dict[str, Any]], List[TaskDescription]]] = None
    collect: Optional[Callable[[Dict[str, Any], List[Task]], None]] = None
    #: custom form
    run: Optional[Callable[["NodeRunner", Dict[str, Any]],
                           Generator]] = None
    #: fraction of the node's tasks allowed to fail before the node fails
    failure_tolerance: float = 0.0

    def __post_init__(self) -> None:
        if (self.build is None) == (self.run is None):
            raise ValueError(
                f"node {self.name!r}: provide exactly one of build= or run=")
        if self.resource_type not in ("CPU", "GPU"):
            raise ValueError("resource_type must be CPU or GPU")
        if not 0 <= self.failure_tolerance <= 1:
            raise ValueError("failure_tolerance must be in [0, 1]")
        self.deps = tuple(self.deps)


def _joined(members: List[TaskNode]) -> Dict[str, Callable]:
    """``build`` / ``collect`` of one bag joining *members*' bags."""
    #: id(context) -> each member's bag size, from build to collect: a
    #: context is one run's, so concurrent runs keep their shares apart
    shares: Dict[int, List[int]] = {}

    def build(context: Dict[str, Any]) -> List[TaskDescription]:
        bags = [list(member.build(context)) for member in members]
        shares[id(context)] = [len(bag) for bag in bags]
        return [description for bag in bags for description in bag]

    def collect(context: Dict[str, Any], tasks: List[Task]) -> None:
        start = 0
        for member, size in zip(members, shares.pop(id(context))):
            if member.collect is not None:
                member.collect(context, tasks[start:start + size])
            start += size

    return {"build": build, "collect": collect}


class CampaignGraph:
    """A named, validated dataflow DAG of :class:`TaskNode` objects."""

    def __init__(self, name: str, nodes: Sequence[TaskNode]) -> None:
        if not nodes:
            raise ValueError(f"graph {name!r} has no nodes")
        self.name = name
        self.nodes: Dict[str, TaskNode] = {}
        for node in nodes:
            if node.name in self.nodes:
                raise ValueError(
                    f"graph {name!r}: duplicate node {node.name!r}")
            self.nodes[node.name] = node
        for node in nodes:
            for dep in node.deps:
                if dep not in self.nodes:
                    raise ValueError(
                        f"graph {name!r}: node {node.name!r} depends on "
                        f"unknown node {dep!r}")
        self._topo = self._toposort()

    def _toposort(self) -> List[str]:
        """Kahn's algorithm; raises on cycles.  Ties keep insertion order."""
        indegree = {name: len(node.deps) for name, node in self.nodes.items()}
        dependents: Dict[str, List[str]] = {name: [] for name in self.nodes}
        for name, node in self.nodes.items():
            for dep in node.deps:
                dependents[dep].append(name)
        # the order is its own FIFO ready queue, read by a cursor
        order = [name for name in self.nodes if indegree[name] == 0]
        for name in order:  # grows by every node whose last input is placed
            for succ in dependents[name]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    order.append(succ)
        if len(order) != len(self.nodes):
            cyclic = sorted(set(self.nodes) - set(order))
            raise ValueError(
                f"graph {self.name!r} has a dependency cycle among {cyclic}")
        return order

    def topological_order(self) -> List[str]:
        """Node names in one valid topological order (deterministic)."""
        return list(self._topo)

    def barriered(self, stages: Sequence[str]) -> "CampaignGraph":
        """The same work as a barrier pipeline: one node per level.

        A node's level is its longest dependency chain.  Level *k* becomes
        the node ``stages[k]``, which depends on ``stages[k-1]``, so it
        starts only once the whole level before it settled.  Its bag joins
        its members' bags in topological order, and at collect each member
        gets its own share back.  A level of one node keeps that node's
        body under the stage name; a ``run=`` node must be alone on its
        level, and the members of a level must agree on resource type,
        service flag and failure tolerance.
        """
        level: Dict[str, int] = {}
        levels: List[List[TaskNode]] = []
        for name in self._topo:
            node = self.nodes[name]
            k = level[name] = max((level[d] + 1 for d in node.deps),
                                  default=0)
            if k == len(levels):
                levels.append([])
            levels[k].append(node)
        if len(stages) != len(levels):
            raise ValueError(
                f"graph {self.name!r} has {len(levels)} levels, "
                f"got {len(stages)} stage names")
        nodes = []
        for k, (stage, members) in enumerate(zip(stages, levels)):
            first = members[0]
            if len({(m.resource_type, m.as_service, m.failure_tolerance,
                     m.run is None) for m in members}) > 1 or (
                    len(members) > 1 and first.run is not None):
                raise ValueError(
                    f"graph {self.name!r}: level {k} ({stage!r}) mixes "
                    f"node kinds: {[m.name for m in members]}")
            body = _joined(members) if len(members) > 1 else {}
            nodes.append(replace(first, name=stage,
                                 deps=(stages[k - 1],) if k else (), **body))
        return CampaignGraph(self.name, nodes)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes.values())

    def table_rows(self) -> List[Dict[str, Any]]:
        """Table-I style rows: node -> resource type -> service flag."""
        return [{
            "pipeline": self.name,
            "stage": node.name,
            "resource_type": node.resource_type,
            "as_service": node.as_service,
        } for node in self.nodes.values()]

    def __repr__(self) -> str:
        edges = sum(len(n.deps) for n in self.nodes.values())
        return (f"<CampaignGraph {self.name!r} nodes={len(self.nodes)} "
                f"edges={edges}>")


class NodeRunner:
    """The per-node facade handed to custom ``run`` generators.

    Presents the runner's own surface (``session``, ``tmgr``,
    ``submit_and_wait``) plus non-blocking tracked submission, with every
    task submitted through it joining *this node's* bookkeeping and the
    campaign's backpressure window.
    """

    def __init__(self, campaign: "CampaignRunner", key: str) -> None:
        self._campaign = campaign
        self._key = key
        self.session = campaign.session
        self.tmgr = campaign.tmgr

    def submit(self, descriptions: List[TaskDescription]) -> List[Task]:
        """Submit tasks under the campaign window without waiting."""
        return self._campaign.submit(descriptions, node=self._key)

    def submit_and_wait(self, descriptions: List[TaskDescription],
                        failure_tolerance: float = 0.0):
        """Process body: run a bag of tasks, return the finished tasks."""
        return (yield from self._campaign.submit_and_wait(
            descriptions, failure_tolerance, node=self._key))


class _GraphState:
    """Mutable per-graph execution state during one campaign run."""

    __slots__ = ("graph", "context", "status", "waiting", "dependents",
                 "prefix", "failures")

    def __init__(self, graph: CampaignGraph, context: Dict[str, Any],
                 prefix: str) -> None:
        self.graph = graph
        self.context = context
        #: node -> "done" | "failed" | "skipped" | "aborted" (absent = live)
        self.status: Dict[str, str] = {}
        #: node -> how many of its dependencies have not settled yet
        self.waiting = {name: len(node.deps)
                        for name, node in graph.nodes.items()}
        #: node -> the nodes depending on it, in topological order
        self.dependents: Dict[str, List[str]] = {name: []
                                                 for name in graph.nodes}
        for name in graph.topological_order():
            for dep in graph.nodes[name].deps:
                self.dependents[dep].append(name)
        #: profile uid prefix of this graph's nodes
        self.prefix = prefix
        self.failures: List[BaseException] = []


class _LiveNode:
    """A node between its start and its settlement."""

    __slots__ = ("owner", "run", "state", "node", "uid", "key", "span",
                 "tasks", "pending", "routine")

    def __init__(self, owner: "CampaignRunner", run: "_CampaignRun",
                 state: _GraphState, node: TaskNode) -> None:
        self.owner = owner
        self.run = run
        self.state = state
        self.node = node
        self.uid = f"{state.prefix}.{node.name}"     # profile uid
        self.key = f"{state.graph.name}/{node.name}"  # node_tasks / span key
        self.span = None
        self.tasks: List[Task] = []     # a build node's bag
        self.pending = 0                # ... and how many are still out
        self.routine: Optional[Routine] = None  # a run= node's generator

    def task_completed(self, event: Event) -> None:
        """``task.completed`` callback of every task of the bag."""
        self.pending -= 1
        if not self.pending:
            self.owner._bag_over(self)


class _CampaignRun:
    """Bookkeeping scoped to one ``run_campaign`` invocation.

    Run state lives here (not on the runner) so concurrent campaigns on
    one runner -- two ``run_campaign`` processes sharing it -- cannot
    clobber each other's failure or progress accounting.
    """

    __slots__ = ("states", "camp_span", "frontier_gauge", "nodes_counter",
                 "live", "running", "finished", "aborted")

    def __init__(self, states: Dict[str, _GraphState],
                 finished: Event) -> None:
        self.states = states
        # observability handles (None when the telemetry plane is off)
        self.camp_span = None        # campaign root span
        self.frontier_gauge = None   # live (ready/running) node count
        self.nodes_counter = None    # completed-node counter
        #: unsettled nodes; at zero the campaign is over and ``finished``
        #: triggers
        self.live = 0
        self.running: Dict[str, _LiveNode] = {}   # by key, in start order
        self.finished = finished
        self.aborted = False         # run_campaign was interrupted


class CampaignRunner:
    """Executes dataflow campaigns on a session via a TaskManager.

    ``window`` bounds the number of concurrently *driven* tasks across
    every graph of the campaign (backpressure): ready nodes still build
    and submit immediately, but task drivers start only as window slots
    free up, keeping agent queue depth and live-generator count bounded
    on very wide campaigns.

    ``node_tasks`` (and with it ``analytics.campaign_metrics``) reflects
    the most recently *started* campaign -- it is reset when
    ``run_campaign`` begins.  Campaigns that must keep their task
    bookkeeping apart should use separate runners (they may still share
    one :class:`SubmissionWindow` for global backpressure).
    """

    def __init__(self, session, task_manager: TaskManager,
                 window: Optional[int] = None) -> None:
        self.session = session
        self.tmgr = task_manager
        self.window: Optional[SubmissionWindow] = (
            SubmissionWindow(session.engine, window)
            if window is not None else None)
        #: "graph/node" -> tasks submitted through the campaign's tracked
        #: paths (feeds analytics.campaign_metrics overlap/idle accounting)
        self.node_tasks: Dict[str, List[Task]] = {}
        #: "graph/node" -> live node span (observability; tasks submitted
        #: by a node are parented onto it)
        self._node_spans: Dict[str, Any] = {}

    # -- submission ----------------------------------------------------------------
    def submit(self, descriptions: List[TaskDescription],
               node: str = "") -> List[Task]:
        """Submit descriptions under the campaign's backpressure window."""
        if not descriptions:
            return []
        obs = self.session.observability
        tracer = obs.tracer if obs is not None else None
        span = self._node_spans.get(node) if tracer is not None else None
        if span is not None:
            # submit_tasks runs synchronously, so the ambient parent is
            # scoped to exactly this node's batch
            tracer.context_parent = span
        try:
            tasks = self.tmgr.submit_tasks(descriptions, window=self.window)
        finally:
            if span is not None:
                tracer.context_parent = None
        if node:
            self.node_tasks.setdefault(node, []).extend(tasks)
        return tasks

    def submit_and_wait(self, descriptions: List[TaskDescription],
                        failure_tolerance: float = 0.0, node: str = ""):
        """Process body: run a bag of tasks, return the finished tasks.

        Only tasks that *finished* in a non-DONE state count against the
        tolerance; tasks parked in recovery (RESCHEDULING) never reach
        this check because their completion event has not fired yet.
        """
        if not descriptions:
            return []
        tasks = self.submit(descriptions, node=node)
        yield self.tmgr.wait_tasks(tasks)
        _check_tolerance(tasks, failure_tolerance)
        return tasks

    @property
    def tasks(self) -> List[Task]:
        """Every task submitted through the campaign's tracked paths."""
        return [t for tasks in self.node_tasks.values() for t in tasks]

    # -- campaign execution --------------------------------------------------------
    def run_campaign(self,
                     graphs: Union[CampaignGraph, Sequence[CampaignGraph]],
                     contexts: Union[None, Dict[str, Any],
                                     Sequence[Dict[str, Any]]] = None):
        """Process body: stream every graph to completion; returns contexts.

        Nodes are submitted the moment their dependencies complete; nodes
        of *different* graphs interleave freely on the shared allocation.
        Returns the single context when called with a single graph, else
        the list of contexts in graph order.  The first node failure is
        re-raised (after every reachable node settled); nodes downstream
        of a failure are skipped, *siblings keep streaming*.
        """
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
        run = _CampaignRun(
            {g.name: _GraphState(g, ctx, uid if single else f"{uid}.{g.name}")
             for g, ctx in zip(graphs, contexts)},
            engine.event())

        obs = self.session.observability
        if obs is not None:
            if obs.tracer is not None:
                run.camp_span = obs.tracer.start_span(
                    uid, "campaign",
                    attrs={"graphs": names,
                           "nodes": sum(len(g) for g in graphs)})
            run.frontier_gauge = obs.metrics.gauge(
                "campaign_frontier_size", {"campaign": uid})
            run.nodes_counter = obs.metrics.counter(
                "campaign_nodes_completed_total", {"campaign": uid})

        profiler.record(engine.now, uid, "campaign_start", "workflow")
        log.info("campaign %s: %d graph(s), %d node(s) at t=%.1f", uid,
                 len(graphs), sum(len(g) for g in graphs), engine.now)
        # one held here until every root is launched
        run.live = sum(len(state.graph) for state in run.states.values()) + 1
        try:
            try:
                for state in run.states.values():
                    for name in state.graph.topological_order():
                        node = state.graph.nodes[name]
                        if not node.deps:
                            self._start_node(run, state, node)
                run.live -= 1
                self._check_finished(run)
                yield run.finished
            except Interrupt:
                self._abort(run)
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

    # -- node records: start, join, settle, release ------------------------------------
    def _start_node(self, run: _CampaignRun, state: _GraphState,
                    node: TaskNode) -> None:
        """Handler: every input of *node* is done -- run it as far as it
        gets without waiting (a ``run=`` node: to its first yield)."""
        engine = self.session.engine
        live = _LiveNode(self, run, state, node)
        self.session.profiler.record(engine.now, live.uid, "node_start",
                                     "workflow")
        log.info("%s: node %s ready at t=%.1f", state.graph.name, node.name,
                 engine.now)
        run.running[live.key] = live
        if run.frontier_gauge is not None:
            run.frontier_gauge.inc()
        obs = self.session.observability
        if obs is not None and obs.tracer is not None:
            # the deps attr carries the graph's dependency edges into
            # the span forest: critical-path attribution reads them there
            live.span = obs.tracer.start_span(
                live.key, "campaign_node", parent=run.camp_span,
                attrs={"graph": state.graph.name,
                       "deps": [f"{state.graph.name}/{d}"
                                for d in node.deps]})
            self._node_spans[live.key] = live.span
        try:
            if node.run is not None:
                live.routine = Routine(
                    engine, node.run(NodeRunner(self, live.key),
                                     state.context),
                    self._node_over, live)
            else:
                live.tasks = tasks = self.submit(node.build(state.context),
                                                 node=live.key)
        except Exception as exc:
            self._node_over(live, False, exc)
            return
        if live.routine is not None:
            live.routine.start()
        elif tasks:
            # one callback joins the bag: the last completion settles it
            live.pending = len(tasks)
            joined = live.task_completed
            for task in tasks:
                task.completed.callbacks.append(joined)
        else:
            self._bag_over(live)

    def _bag_over(self, live: _LiveNode) -> None:
        """Every task of a build node's bag completed: collect, settle."""
        if live.run.aborted:
            return  # the campaign is gone; its tasks finish unobserved
        node = live.node
        try:
            _check_tolerance(live.tasks, node.failure_tolerance)
            if node.collect is not None:
                node.collect(live.state.context, live.tasks)
        except Exception as exc:
            self._node_over(live, False, exc)
        else:
            self._node_over(live, True)

    def _node_over(self, live: _LiveNode, ok: bool, exc: Any = None) -> None:
        """Settle a started node -- done, failed (*exc*) or aborted (an
        :class:`Interrupt`) -- and launch the dependents it released.  Also
        the exit of a ``run=`` node's Routine (*exc* is then its value)."""
        run, state, name = live.run, live.state, live.node.name
        engine = self.session.engine
        run.running.pop(live.key, None)
        live.routine = None  # the routine holds live: no cycle outlives it
        if ok:
            exc = None
        if isinstance(exc, Interrupt):
            # campaign torn down mid-node: settle, start nothing
            state.status.setdefault(name, "aborted")
        elif exc is None or isinstance(exc, Exception):
            if exc is None:
                state.status[name] = "done"
            else:
                state.status[name] = "failed"
                state.failures.append(exc)
                log.warning("%s: node %s failed: %s", state.graph.name, name,
                            exc)
            self.session.profiler.record(engine.now, live.uid, "node_stop",
                                         "workflow")
        if live.span is not None:
            live.span.set_attr("status", state.status.get(name))
            self.session.observability.tracer.end_span(live.span)
            self._node_spans.pop(live.key, None)
        if run.frontier_gauge is not None:
            run.frontier_gauge.dec()
        if exc is not None and not isinstance(exc, Exception):
            raise exc  # not ours to absorb: surfaces from run()
        if run.aborted:
            return
        self._release(run, state, name)
        if exc is None and run.nodes_counter is not None:
            run.nodes_counter.inc()
        run.live -= 1
        self._check_finished(run)

    def _check_finished(self, run: _CampaignRun) -> None:
        """Nothing unsettled: the campaign is over."""
        if not (run.live or run.aborted):
            run.finished.succeed()

    def _release(self, run: _CampaignRun, state: _GraphState,
                 name: str) -> None:
        """Count the settled node *name* off its dependents.  One that
        became runnable is launched by a zero-delay landing of its own (so
        the URGENT start landing of its tasks precedes its sibling's start,
        as when each dependent resumed in an entry of its own); one that
        lost an input is skipped here and now, and so is the cone below."""
        call_later = self.session.engine.call_later
        settled = [name]
        for name in settled:  # grows by the skip cone
            for dep in state.dependents[name]:
                state.waiting[dep] -= 1
                if state.waiting[dep] or dep in state.status:
                    continue
                node = state.graph.nodes[dep]
                if all(state.status.get(d) == "done" for d in node.deps):
                    call_later(0.0, self._launch, (run, state, node))
                else:
                    state.status[dep] = "skipped"
                    run.live -= 1
                    settled.append(dep)

    def _launch(self, flight: tuple) -> None:
        """Landing: start a node its last input's settlement released."""
        run, state, node = flight
        if not run.aborted:
            self._start_node(run, state, node)

    def _abort(self, run: _CampaignRun) -> None:
        """``run_campaign`` was interrupted: stop what genuinely runs (the
        ``run=`` generators), settle every other node aborted.  Tasks
        already submitted finish on their own, unobserved."""
        run.aborted = True
        for live in list(run.running.values()):
            cause = Interrupt("campaign interrupted")
            if live.routine is not None:
                live.routine.throw(cause)
            else:
                self._node_over(live, False, cause)
        for state in run.states.values():
            for name in state.graph.nodes:
                state.status.setdefault(name, "aborted")
