"""Performance attribution: phase breakdowns, critical path, what-if bounds.

The telemetry plane *collects* spans, series and anomalies; this module
*interprets* them, answering the two questions a campaign owner actually
asks -- mirroring the makespan-decomposition methodology of the
RADICAL-Pilot performance-characterization line of work:

* **"where did the time go?"** -- every task's lifetime is decomposed into
  its lifecycle phases (``submit -> schedule -> stage_in -> agent_queue ->
  execute -> stage_out`` plus ``recovery``/``reschedule`` waits), and the
  campaign's **critical path** is extracted through its dependency edges:
  starting from the node that finished last, each step walks to the
  dependency that completed last, so the path is the chain of nodes that
  actually determined the makespan.  Per-step contributions carry the
  node's dominant phase, so the answer reads "``train-2``'s *execute*
  phase contributed 120s of the 140s makespan";

* **"what if?"** -- lower bounds on the makespan under idealized
  assumptions, each computed as the longest dependency path with per-node
  weights equal to the *retained* phase durations:

  - ``dependencies_only``   -- all phases kept: the pure DAG bound; the
    gap to the actual makespan is resource contention + engine overhead;
  - ``infinite_nodes``      -- queue waits dropped (``submit``,
    ``schedule``, ``agent_queue``): the bound with unlimited capacity;
  - ``zero_cost_transfers`` -- ``stage_in``/``stage_out`` dropped;
  - ``no_recovery``         -- ``recovery``/``reschedule`` waits dropped.

  Every projection is provably ``<=`` the actual makespan (a node's tasks
  start only after its dependencies complete, and phases partition each
  task's lifetime), and :meth:`CampaignAttribution.validate` checks that
  invariant against the measured value -- a failed check means the span
  forest is inconsistent, not that the run was fast.

Attribution degrades gracefully on truncated histories (tasks that never
completed, spans queried mid-run): nodes without data drop out of the path,
phases default to empty, and open spans count as zero-length -- it never
raises on partial input.

Input: the span list of a live :class:`~repro.observability.trace.Tracer`,
which says everything itself: campaign node spans carry their dependency
edges as ``deps`` attrs, and task roots are parented onto their node.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .trace import PHASE_OF_STATE, Span

__all__ = ["TaskPhases", "NodeAttribution", "PathStep", "Projection",
           "CampaignAttribution", "PHASES", "WAIT_PHASES",
           "TRANSFER_PHASES", "RECOVERY_PHASES"]

#: every lifecycle phase the tracer can open, in lifecycle order
PHASES: Tuple[str, ...] = ("submit", "schedule", "stage_in", "agent_queue",
                           "execute", "stage_out", "recovery", "reschedule")
assert set(PHASE_OF_STATE.values()) <= set(PHASES)

#: phases that are *waiting for capacity / the control plane*
WAIT_PHASES = frozenset({"submit", "schedule", "agent_queue"})
#: phases that are *moving data*
TRANSFER_PHASES = frozenset({"stage_in", "stage_out"})
#: phases that are *paying for failures*
RECOVERY_PHASES = frozenset({"recovery", "reschedule"})

_PHASE_SET = frozenset(PHASES)


def _end(span: Span) -> float:
    """A span's end, with open spans counting as zero-length."""
    return span.end if span.end is not None else span.start


@dataclass
class TaskPhases:
    """One task's lifetime decomposed into lifecycle phases."""

    uid: str
    start: float
    end: float
    #: phase name -> total seconds (summed across attempts)
    phases: Dict[str, float] = field(default_factory=dict)

    def kept(self, drop: frozenset = frozenset()) -> float:
        """Sum of phase durations outside *drop* (falls back to the span
        extent when no phase data survived truncation)."""
        if not self.phases:
            return 0.0 if drop else self.end - self.start
        return sum(v for k, v in self.phases.items() if k not in drop)


@dataclass
class NodeAttribution:
    """One campaign node's tasks, interval and aggregated phases."""

    key: str
    tasks: List[TaskPhases] = field(default_factory=list)

    @property
    def start(self) -> float:
        return min(t.start for t in self.tasks)

    @property
    def end(self) -> float:
        return max(t.end for t in self.tasks)

    @property
    def phases(self) -> Dict[str, float]:
        """Phase name -> seconds summed over the node's tasks."""
        totals: Dict[str, float] = {}
        for task in self.tasks:
            for name, seconds in task.phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    def dominant_phase(self) -> Tuple[str, float]:
        """The (phase, seconds) with the largest aggregate share."""
        totals = self.phases
        if not totals:
            return ("", 0.0)
        name = max(totals, key=lambda k: totals[k])
        return (name, totals[name])

    def weight(self, drop: frozenset = frozenset()) -> float:
        """Lower-bound service time: the slowest task's kept-phase sum.

        Tasks of one node may run in parallel, so the node cannot finish
        faster than its slowest task -- ``max`` keeps the bound sound.
        """
        if not self.tasks:
            return 0.0
        return max(t.kept(drop) for t in self.tasks)


@dataclass
class PathStep:
    """One node's contribution on the critical path."""

    key: str
    #: time the makespan spent "inside" this step: from the moment the
    #: path entered the node (its last-finishing dependency completed, or
    #: its own start at the path head) until the node finished
    duration: float
    #: portion of ``duration`` before the node's first task started
    #: (inter-node gap: submission latency, window backpressure)
    wait: float
    #: the node's heaviest phase and its aggregate seconds
    dominant_phase: str
    phase_s: float
    entered: float
    finished: float


@dataclass
class Projection:
    """One what-if makespan lower bound."""

    name: str
    bound: float
    dropped: Tuple[str, ...]
    #: bound <= actual makespan (+ float slack); False means the span
    #: forest is inconsistent with the measured makespan
    valid: bool


class CampaignAttribution:
    """Answers built from a span forest: breakdowns, critical path, what-ifs.

    ``nodes`` maps a node key (``"graph/node"``, or a task uid for tasks
    outside any campaign) to its :class:`NodeAttribution`; ``edges`` maps a
    node key to the keys it depends on.  Edges naming unknown nodes are
    pruned (skipped nodes, truncated histories), so partial telemetry
    yields partial -- never broken -- answers.
    """

    def __init__(self, nodes: Dict[str, NodeAttribution],
                 edges: Optional[Dict[str, Tuple[str, ...]]] = None,
                 makespan: Optional[float] = None) -> None:
        self.nodes = {k: n for k, n in nodes.items() if n.tasks}
        self.edges: Dict[str, Tuple[str, ...]] = {}
        for key, deps in (edges or {}).items():
            if key in self.nodes:
                self.edges[key] = tuple(d for d in deps if d in self.nodes)
        if makespan is None and self.nodes:
            start = min(n.start for n in self.nodes.values())
            end = max(n.end for n in self.nodes.values())
            makespan = end - start
        self.makespan = makespan or 0.0

    # -- the constructor -----------------------------------------------------
    @classmethod
    def from_spans(cls, spans: Iterable[Span],
                   makespan: Optional[float] = None,
                   ) -> "CampaignAttribution":
        """Build from a span list, as a live tracer records it.

        Membership and edges are read from the list's ``campaign_node``
        spans: each carries its dependency edges (``deps`` attr, stamped by
        the campaign runner), and a task root parented onto one joins that
        node.  Every other task becomes its own single-task node keyed by
        uid.
        """
        spans = list(spans)
        edges: Dict[str, Tuple[str, ...]] = {}
        #: node span id -> node key
        node_of: Dict[int, str] = {}
        nodes: Dict[str, NodeAttribution] = {}
        for span in spans:
            if span.category == "campaign_node":
                node_of[span.span_id] = span.name
                nodes[span.name] = NodeAttribution(span.name)
                deps = (span.attrs or {}).get("deps")
                if deps:
                    edges[span.name] = tuple(deps)
        for root, phases in _tasks_from_spans(spans):
            key = node_of.get(root.parent_id, phases.uid)
            node = nodes.get(key)
            if node is None:
                node = nodes[key] = NodeAttribution(key)
            node.tasks.append(phases)
        return cls(nodes, edges, makespan)

    # -- breakdowns ----------------------------------------------------------
    def phase_totals(self) -> Dict[str, float]:
        """Phase name -> seconds summed across every attributed task."""
        totals: Dict[str, float] = {}
        for node in self.nodes.values():
            for name, seconds in node.phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    # -- critical path -------------------------------------------------------
    def critical_path(self) -> List[PathStep]:
        """The chain of nodes that determined the makespan.

        Starts at the node that finished last and repeatedly steps to the
        dependency that *completed* last -- the one whose completion
        actually released the current node.  Returned head-first.  A
        node with no (surviving) dependencies ends the walk; its step
        duration runs from its own start.
        """
        if not self.nodes:
            return []
        steps: List[PathStep] = []
        key: Optional[str] = max(self.nodes, key=lambda k: self.nodes[k].end)
        seen = set()
        while key is not None and key not in seen:
            seen.add(key)
            node = self.nodes[key]
            deps = self.edges.get(key, ())
            pred = max(deps, key=lambda d: self.nodes[d].end) if deps \
                else None
            entered = self.nodes[pred].end if pred is not None \
                else node.start
            phase, phase_s = node.dominant_phase()
            steps.append(PathStep(
                key=key,
                duration=node.end - entered,
                wait=max(0.0, node.start - entered),
                dominant_phase=phase,
                phase_s=phase_s,
                entered=entered,
                finished=node.end))
            key = pred
        steps.reverse()
        return steps

    def top_contributors(self, n: int = 3) -> List[PathStep]:
        """Critical-path steps ordered by time contributed, largest first."""
        return sorted(self.critical_path(),
                      key=lambda s: s.duration, reverse=True)[:n]

    def critical_path_phases(self) -> Dict[str, float]:
        """Phase name -> seconds contributed along the critical path only."""
        totals: Dict[str, float] = {}
        for step in self.critical_path():
            for name, seconds in self.nodes[step.key].phases.items():
                totals[name] = totals.get(name, 0.0) + seconds
        return totals

    # -- what-if projections -------------------------------------------------
    def what_if(self, drop: Iterable[str] = ()) -> float:
        """Makespan lower bound with the *drop* phases costing zero.

        Longest dependency path where each node weighs its slowest task's
        kept-phase sum.  With ``drop=()`` this is the pure DAG bound.  The
        walk is depth-first on an explicit stack, so a chain of any depth
        resolves; a node is finished once its dependencies are, each read
        in edge order.
        """
        drop = frozenset(drop)
        unknown = drop - _PHASE_SET
        if unknown:
            raise ValueError(f"unknown phases: {sorted(unknown)}")
        finish: Dict[str, float] = {}
        # the bottom frame is the call that reads every node; a node on
        # the stack reads as 0.0, the cycle guard
        stack = [("", iter(self.nodes), [])]
        while True:
            key, deps, ready = stack[-1]
            for dep in deps:
                if dep not in finish:
                    finish[dep] = 0.0
                    stack.append((dep, iter(self.edges.get(dep, ())), []))
                    break
                ready.append(finish[dep])
            else:
                stack.pop()
                if not stack:
                    return max(ready, default=0.0)
                finish[key] = value = (max(ready, default=0.0)
                                       + self.nodes[key].weight(drop))
                stack[-1][2].append(value)

    def projections(self) -> Dict[str, Projection]:
        """The standard what-if suite, each validated against the actual."""
        out: Dict[str, Projection] = {}
        for name, drop in (
                ("dependencies_only", frozenset()),
                ("infinite_nodes", WAIT_PHASES),
                ("zero_cost_transfers", TRANSFER_PHASES),
                ("no_recovery", RECOVERY_PHASES)):
            bound = self.what_if(drop)
            out[name] = Projection(
                name=name, bound=bound, dropped=tuple(sorted(drop)),
                valid=bound <= self.makespan + 1e-6)
        return out

    def validate(self) -> List[str]:
        """Invalid projections (bound > actual makespan); empty when sound."""
        return [p.name for p in self.projections().values() if not p.valid]

    # -- rendering -----------------------------------------------------------
    def report(self, title: str = "Performance attribution") -> str:
        """End-of-run summary rendered through the analytics report layer."""
        from ..analytics.report import ReportBuilder

        builder = ReportBuilder(title)
        builder.add_kv({
            "nodes attributed": len(self.nodes),
            "tasks attributed": sum(len(n.tasks)
                                    for n in self.nodes.values()),
            "makespan": self.makespan,
        }, title="campaign")
        totals = self.phase_totals()
        if totals:
            builder.add_bars(
                {k: totals[k] for k in PHASES if k in totals},
                title="where the core-time went (all tasks, seconds)")
        path = self.critical_path()
        if path:
            builder.add_table(
                ["#", "node", "on-path s", "wait s", "dominant phase",
                 "phase s"],
                [[i + 1, s.key, f"{s.duration:.1f}", f"{s.wait:.1f}",
                  s.dominant_phase, f"{s.phase_s:.1f}"]
                 for i, s in enumerate(path)],
                title=f"critical path ({len(path)} nodes)")
        rows = [[p.name, f"{p.bound:.1f}",
                 f"{p.bound / self.makespan:.2f}" if self.makespan else "n/a",
                 "ok" if p.valid else "INVALID"]
                for p in self.projections().values()]
        builder.add_table(
            ["projection", "bound s", "of actual", "check"],
            rows, title="what-if makespan lower bounds")
        return builder.render()


def _tasks_from_spans(spans: Iterable[Span],
                      ) -> List[Tuple[Span, TaskPhases]]:
    """Pair each task root span with its phase breakdown.

    A span is a *phase* iff its category is ``task`` and its name is a
    lifecycle phase; every other ``task``-category span is a root.  Phase
    durations sum per name, so per-attempt spans from recovery loops
    accumulate instead of overwriting.
    """
    roots: Dict[int, Tuple[Span, TaskPhases]] = {}
    phase_spans: List[Span] = []
    for span in spans:
        if span.category != "task":
            continue
        if span.name in _PHASE_SET:
            phase_spans.append(span)
        else:
            roots[span.span_id] = (span, TaskPhases(
                uid=span.name, start=span.start, end=_end(span)))
    for span in phase_spans:
        entry = roots.get(span.parent_id)
        if entry is None:
            continue  # orphan phase (truncated history): skip, don't raise
        phases = entry[1].phases
        phases[span.name] = phases.get(span.name, 0.0) \
            + (_end(span) - span.start)
    return list(roots.values())
