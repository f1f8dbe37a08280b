"""The eager tracer, kept as the test reference.

Until PR 19 this was ``repro.observability.trace.Tracer``: every task
transition closed the previous phase :class:`Span` and built the next one on
the spot.  The shipped tracer reads the transitions off the profile and
derives the same spans on query; ``tests/test_properties.py`` holds it to
this one, span for span, at every profile level.  The reference takes its
clock from ``session.engine.now`` and shares ``Span`` / ``PHASE_OF_STATE``
with the shipped module, nothing else.
"""

import itertools

from repro.observability.trace import PHASE_OF_STATE, Span


class ReferenceTracer:
    """Span store whose task hooks build spans at every transition."""

    def __init__(self, session):
        self.session = session
        self.spans = []
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)
        self._task_roots = {}
        self._task_phase = {}
        self.context_parent = None

    def start_span(self, name, category="", parent=None, trace_id=None,
                   attrs=None):
        if parent is not None:
            trace_id = parent.trace_id
        elif trace_id is None:
            trace_id = next(self._trace_ids)
        span = Span(trace_id, next(self._span_ids),
                    parent.span_id if parent is not None else None,
                    name, category, self.session.engine.now, attrs)
        self.spans.append(span)
        return span

    def end_span(self, span):
        if span.end is None:
            span.end = self.session.engine.now
        return span

    def task_submitted(self, task):
        parent = getattr(task, "trace_parent", None) or self.context_parent
        root = self.start_span(task.uid, "task", parent=parent,
                               attrs={"uid": task.uid})
        self._task_roots[task.uid] = root
        self._task_phase[task.uid] = self.start_span(
            "submit", "task", parent=root, attrs={"attempt": task.attempts})
        task.completed.callbacks.append(
            lambda event, uid=task.uid: self._task_completed(uid))
        return root

    def task_root(self, uid):
        return self._task_roots.get(uid)

    def on_task_state(self, task, state):
        root = self._task_roots.get(task.uid)
        if root is None:
            return
        phase = self._task_phase.pop(task.uid, None)
        if phase is not None:
            self.end_span(phase)
        name = PHASE_OF_STATE.get(state)
        if name is not None:
            span = self.start_span(name, "task", parent=root,
                                   attrs={"attempt": task.attempts})
            self._task_phase[task.uid] = span

    def _task_completed(self, uid):
        phase = self._task_phase.pop(uid, None)
        if phase is not None:
            self.end_span(phase)
        root = self._task_roots.pop(uid, None)
        if root is not None:
            self.end_span(root)
