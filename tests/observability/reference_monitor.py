"""The straggler detector as it sorted its window, kept as the test reference.

Until the sorted window replaced it, ``MonitorHub.observe_exec`` kept one
``deque(maxlen=straggler_window)`` of recent runtimes per resource shape and
took ``statistics.median`` of it -- a fresh sort -- on every completion.
``tests/test_properties.py`` holds the shipped detector to this one, anomaly
for anomaly.  Only the straggler half of the hub is here; the reference
shares :class:`AnomalyEvent` with the shipped module, nothing else.
"""

from collections import deque
from statistics import median

from repro.observability import AnomalyEvent


class ReferenceStragglerDetector:
    """``observe_exec`` of the hub, with its windows and its event list."""

    def __init__(self, config):
        self.config = config
        self.events = []
        self._exec_windows = {}

    def observe_exec(self, task, t):
        runtime = task.runtime_s
        if runtime is None:
            return
        cfg = self.config
        shape = (task.n_cores, task.n_gpus, task.description.ranks)
        window = self._exec_windows.get(shape)
        if window is None:
            window = self._exec_windows[shape] = deque(
                maxlen=cfg.straggler_window)
        if len(window) >= cfg.straggler_min_samples:
            med = median(window)
            if med > 0 and runtime > cfg.straggler_k * med:
                ratio = runtime / med
                self.events.append(AnomalyEvent(
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
