"""Failure taxonomy: typed fault exceptions and structured failure reasons.

Every component that can break a task attaches a :class:`FailureReason`
instead of only logging the exception: the reason names the exception type,
the *origin component* (node, pilot, transfer, executor, scheduler, ...)
and the attempt it killed, so recovery policies can decide per-origin and
``analytics`` can report failure-reason counts rather than a log grep.

The exception classes below are the *injected / infrastructure* faults.
They derive from :class:`RuntimeFault` so the task driver can tell an
infrastructure failure delivered via interrupt (retry material) apart from
a user cancellation (never retried).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

__all__ = [
    "RuntimeFault",
    "NodeFailure",
    "PilotLost",
    "pilot_end_cause",
    "FailureReason",
    "classify_failure",
    "failure_counts",
]


class RuntimeFault(RuntimeError):
    """Base class for infrastructure faults (as opposed to user errors)."""


class NodeFailure(RuntimeFault):
    """A compute node crashed under the task."""

    def __init__(self, node_name: str, pilot_uid: str = "") -> None:
        super().__init__(f"node {node_name} failed")
        self.node_name = node_name
        self.pilot_uid = pilot_uid


class PilotLost(RuntimeFault):
    """The pilot hosting the task died (preemption, walltime, crash)."""

    def __init__(self, pilot_uid: str, state: str = "FAILED") -> None:
        super().__init__(f"pilot {pilot_uid} lost ({state})")
        self.pilot_uid = pilot_uid
        self.state = state


def pilot_end_cause(pilot_uid: str, state: str, resilient: bool):
    """What a pilot's end does to the tasks and services aboard: an
    orderly end cancels them (the note returned is the cause); a FAILED
    pilot under resilience loses them, and :class:`PilotLost` is the fault
    handed to recovery, which acts only once the heartbeat lease declares
    the pilot dead, never on this (oracle) end."""
    if resilient and state == "FAILED":
        return PilotLost(pilot_uid, state)
    return f"{pilot_uid} ended {state}"


@dataclass(frozen=True)
class FailureReason:
    """Structured description of one task-attempt failure."""

    exception_type: str     # e.g. "NodeFailure", "TransferAborted"
    origin: str             # component family: node|pilot|transfer|executor|
                            # scheduler|staging|service|binding
    message: str
    at: float               # sim time the failure was recorded
    attempt: int            # 1-based attempt number it killed
    component: str = ""     # uid of the recording component
    pilot_uid: Optional[str] = None
    node_name: Optional[str] = None
    #: core-seconds consumed by the killed attempt (wasted work)
    wasted_core_s: float = 0.0

    @property
    def key(self) -> str:
        """Counting key for analytics: ``origin:ExceptionType``."""
        return f"{self.origin}:{self.exception_type}"


def classify_failure(exc: BaseException, at: float, attempt: int,
                     phase: str = "", component: str = "",
                     wasted_core_s: float = 0.0) -> FailureReason:
    """Map an exception (plus the phase it hit) to a :class:`FailureReason`.

    Typed faults carry their own origin; anything else is attributed to the
    pipeline *phase* that raised it (binding, stage_in, executor,
    stage_out), so a plain ValueError out of a function payload reads
    ``executor:ValueError`` while the same exception during input staging
    reads ``staging:ValueError``.
    """
    pilot_uid = getattr(exc, "pilot_uid", None) or None
    node_name = getattr(exc, "node_name", None)
    name = type(exc).__name__
    if isinstance(exc, NodeFailure):
        origin = "node"
    elif isinstance(exc, PilotLost):
        origin = "pilot"
    elif name == "TransferAborted":
        origin = "transfer"
    elif name in ("SchedulerError", "ExecutionError"):
        origin = "scheduler" if name == "SchedulerError" else "executor"
    else:
        origin = {"": "executor", "binding": "binding",
                  "stage_in": "staging", "stage_out": "staging",
                  "agent": "executor"}.get(phase, phase or "executor")
    return FailureReason(
        exception_type=name, origin=origin, message=str(exc), at=at,
        attempt=attempt, component=component, pilot_uid=pilot_uid,
        node_name=node_name, wasted_core_s=wasted_core_s)


def failure_counts(tasks: Iterable) -> Dict[str, int]:
    """Failure-reason counts (``origin:ExceptionType``) over task history.

    Counts every recorded attempt failure, not just the terminal one, so
    retried-then-successful tasks still show what broke along the way.
    """
    counts: Dict[str, int] = {}
    for task in tasks:
        for reason in getattr(task, "failures", ()):
            counts[reason.key] = counts.get(reason.key, 0) + 1
    return counts
