"""Entity state models with legal-transition enforcement.

RADICAL-Pilot entities (pilots, tasks) follow a stateful paradigm (§III:
"RADICAL-Pilot operates with tasks as units of work, executed independently
of each other and following a stateful paradigm").  We reproduce the state
machines at the granularity the paper's metrics need, and *enforce* them:
illegal transitions raise :class:`StateError` instead of silently corrupting
bookkeeping.  Service tasks add a service lifecycle on top (see
:mod:`repro.core.service_manager`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

__all__ = ["TaskState", "PilotState", "ServiceState", "StateError", "StateModel"]


class StateError(Exception):
    """Raised on an illegal state transition."""


class TaskState:
    """Task lifecycle (condensed from RADICAL-Pilot's state model).

    The resilience subsystem adds one edge to the classic model: a FAILED
    task whose recovery policy grants a retry moves through RESCHEDULING
    back into TMGR_SCHEDULING (late re-binding to a healthy pilot).  DONE
    and CANCELED remain absorbing; FAILED is final *unless* a recovery
    policy explicitly resurrects the task.
    """

    NEW = "NEW"
    TMGR_SCHEDULING = "TMGR_SCHEDULING"      # bound to a pilot
    TMGR_STAGING_INPUT = "TMGR_STAGING_INPUT"
    AGENT_SCHEDULING = "AGENT_SCHEDULING"    # waiting for slots
    AGENT_EXECUTING = "AGENT_EXECUTING"
    TMGR_STAGING_OUTPUT = "TMGR_STAGING_OUTPUT"
    RESCHEDULING = "RESCHEDULING"            # recovery granted a retry
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    FINAL: Tuple[str, ...] = (DONE, FAILED, CANCELED)

    ORDER: List[str] = [
        NEW, TMGR_SCHEDULING, TMGR_STAGING_INPUT, AGENT_SCHEDULING,
        AGENT_EXECUTING, TMGR_STAGING_OUTPUT, DONE,
    ]

    #: legal transitions: every state may also fail or be canceled.
    TRANSITIONS: Dict[str, Tuple[str, ...]] = {
        NEW: (TMGR_SCHEDULING,),
        TMGR_SCHEDULING: (TMGR_STAGING_INPUT, AGENT_SCHEDULING),
        TMGR_STAGING_INPUT: (AGENT_SCHEDULING,),
        AGENT_SCHEDULING: (AGENT_EXECUTING,),
        AGENT_EXECUTING: (TMGR_STAGING_OUTPUT, DONE),
        TMGR_STAGING_OUTPUT: (DONE,),
        RESCHEDULING: (TMGR_SCHEDULING,),
        DONE: (),
        FAILED: (RESCHEDULING,),
        CANCELED: (),
    }


class PilotState:
    """Pilot lifecycle."""

    NEW = "NEW"
    PMGR_LAUNCHING = "PMGR_LAUNCHING"   # batch job queued / bootstrapping
    PMGR_ACTIVE = "PMGR_ACTIVE"         # agent up, accepting work
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"

    FINAL: Tuple[str, ...] = (DONE, FAILED, CANCELED)

    TRANSITIONS: Dict[str, Tuple[str, ...]] = {
        NEW: (PMGR_LAUNCHING,),
        PMGR_LAUNCHING: (PMGR_ACTIVE,),
        PMGR_ACTIVE: (DONE,),
        DONE: (),
        FAILED: (),
        CANCELED: (),
    }


class ServiceState:
    """Service-task lifecycle (the paper's extension, §III).

    Layered on top of the task model: after the underlying service task
    starts executing, the service goes through model initialisation
    (``INITIALIZING``: loading/initialising the ML model), endpoint
    publication (``PUBLISHING``) and becomes ``READY`` to accept client
    requests.  These phases are exactly the Fig. 3 bootstrap components
    (launch / init / publish).
    """

    DEFINED = "DEFINED"
    LAUNCHING = "LAUNCHING"
    INITIALIZING = "INITIALIZING"
    PUBLISHING = "PUBLISHING"
    READY = "READY"
    STOPPING = "STOPPING"
    STOPPED = "STOPPED"
    FAILED = "FAILED"

    FINAL: Tuple[str, ...] = (STOPPED, FAILED)

    TRANSITIONS: Dict[str, Tuple[str, ...]] = {
        DEFINED: (LAUNCHING,),
        LAUNCHING: (INITIALIZING,),
        INITIALIZING: (PUBLISHING,),
        PUBLISHING: (READY,),
        READY: (STOPPING,),
        STOPPING: (STOPPED,),
        STOPPED: (),
        FAILED: (),
    }


class StateModel:
    """Validates transitions for one family of states."""

    def __init__(self, transitions: Dict[str, Tuple[str, ...]],
                 final: Tuple[str, ...]) -> None:
        self.transitions = transitions
        self.final = final
        #: profile event name of each state, built once
        self.events = {state: f"state:{state}" for state in transitions}

    def check(self, current: str, target: str) -> None:
        """Raise :class:`StateError` unless ``current -> target`` is legal."""
        if target == current:
            raise StateError(f"no-op transition {current} -> {target}")
        # Explicitly declared edges always win -- including declared exits
        # out of final states (FAILED -> RESCHEDULING, the recovery edge).
        if target in self.transitions.get(current, ()):
            return
        if current in self.final:
            raise StateError(
                f"cannot leave final state {current} (target {target})")
        # Any non-final state may fail or be canceled.
        if target in self.final and target != "DONE" and target != "STOPPED":
            return
        raise StateError(
            f"illegal transition {current} -> {target} "
            f"(allowed: {self.transitions.get(current, ())})")


TASK_MODEL = StateModel(TaskState.TRANSITIONS, TaskState.FINAL)
PILOT_MODEL = StateModel(PilotState.TRANSITIONS, PilotState.FINAL)
SERVICE_MODEL = StateModel(ServiceState.TRANSITIONS, ServiceState.FINAL)
