"""Tests for the entity state models."""

import pytest

from repro.pilot.states import (
    PILOT_MODEL,
    SERVICE_MODEL,
    TASK_MODEL,
    PilotState,
    ServiceState,
    StateError,
    TaskState,
)


class TestTaskModel:
    def test_happy_path_is_legal(self):
        chain = TaskState.ORDER
        for current, target in zip(chain, chain[1:]):
            TASK_MODEL.check(current, target)

    def test_skipping_staging_is_legal(self):
        TASK_MODEL.check(TaskState.TMGR_SCHEDULING, TaskState.AGENT_SCHEDULING)
        TASK_MODEL.check(TaskState.AGENT_EXECUTING, TaskState.DONE)

    def test_backward_transition_rejected(self):
        with pytest.raises(StateError, match="illegal"):
            TASK_MODEL.check(TaskState.AGENT_EXECUTING, TaskState.NEW)

    def test_skip_forward_rejected(self):
        with pytest.raises(StateError):
            TASK_MODEL.check(TaskState.NEW, TaskState.AGENT_EXECUTING)

    def test_any_state_may_fail_or_cancel(self):
        for state in (TaskState.NEW, TaskState.AGENT_SCHEDULING,
                      TaskState.TMGR_STAGING_OUTPUT):
            TASK_MODEL.check(state, TaskState.FAILED)
            TASK_MODEL.check(state, TaskState.CANCELED)

    def test_final_states_are_sticky(self):
        for final in TaskState.FINAL:
            with pytest.raises(StateError, match="final"):
                TASK_MODEL.check(final, TaskState.NEW)

    def test_failed_resurrects_only_through_rescheduling(self):
        # the one declared exit from a final state: the recovery edge
        TASK_MODEL.check(TaskState.FAILED, TaskState.RESCHEDULING)
        TASK_MODEL.check(TaskState.RESCHEDULING, TaskState.TMGR_SCHEDULING)
        for target in (TaskState.NEW, TaskState.AGENT_EXECUTING,
                       TaskState.DONE):
            with pytest.raises(StateError):
                TASK_MODEL.check(TaskState.FAILED, target)
        # DONE/CANCELED have no recovery edge
        for final in (TaskState.DONE, TaskState.CANCELED):
            with pytest.raises(StateError):
                TASK_MODEL.check(final, TaskState.RESCHEDULING)

    def test_rescheduling_may_fail_or_cancel_but_not_shortcut(self):
        TASK_MODEL.check(TaskState.RESCHEDULING, TaskState.FAILED)
        TASK_MODEL.check(TaskState.RESCHEDULING, TaskState.CANCELED)
        with pytest.raises(StateError):
            TASK_MODEL.check(TaskState.RESCHEDULING,
                             TaskState.AGENT_EXECUTING)

    def test_done_requires_execution_path(self):
        with pytest.raises(StateError):
            TASK_MODEL.check(TaskState.NEW, TaskState.DONE)

    def test_noop_transition_rejected(self):
        with pytest.raises(StateError, match="no-op"):
            TASK_MODEL.check(TaskState.NEW, TaskState.NEW)


PILOT_STATES = [PilotState.NEW, PilotState.PMGR_LAUNCHING,
                PilotState.PMGR_ACTIVE, PilotState.DONE, PilotState.FAILED,
                PilotState.CANCELED]

#: every legal pilot transition; anything else must raise
PILOT_LEGAL = {
    (PilotState.NEW, PilotState.PMGR_LAUNCHING),
    (PilotState.PMGR_LAUNCHING, PilotState.PMGR_ACTIVE),
    (PilotState.PMGR_ACTIVE, PilotState.DONE),
    # any live state may fail or be canceled
    (PilotState.NEW, PilotState.FAILED),
    (PilotState.NEW, PilotState.CANCELED),
    (PilotState.PMGR_LAUNCHING, PilotState.FAILED),
    (PilotState.PMGR_LAUNCHING, PilotState.CANCELED),
    (PilotState.PMGR_ACTIVE, PilotState.FAILED),
    (PilotState.PMGR_ACTIVE, PilotState.CANCELED),
}


class TestPilotModel:
    def test_happy_path(self):
        PILOT_MODEL.check(PilotState.NEW, PilotState.PMGR_LAUNCHING)
        PILOT_MODEL.check(PilotState.PMGR_LAUNCHING, PilotState.PMGR_ACTIVE)
        PILOT_MODEL.check(PilotState.PMGR_ACTIVE, PilotState.DONE)

    def test_launching_may_fail(self):
        PILOT_MODEL.check(PilotState.PMGR_LAUNCHING, PilotState.FAILED)

    def test_active_cannot_jump_to_new(self):
        with pytest.raises(StateError):
            PILOT_MODEL.check(PilotState.PMGR_ACTIVE, PilotState.NEW)

    @pytest.mark.parametrize("current", PILOT_STATES)
    @pytest.mark.parametrize("target", PILOT_STATES)
    def test_exhaustive_transition_enforcement(self, current, target):
        """Every (current, target) pair: legal iff in the whitelist."""
        if (current, target) in PILOT_LEGAL:
            PILOT_MODEL.check(current, target)
        else:
            with pytest.raises(StateError):
                PILOT_MODEL.check(current, target)

    def test_final_pilot_states_absorb(self):
        for final in PilotState.FINAL:
            for target in PILOT_STATES:
                with pytest.raises(StateError):
                    PILOT_MODEL.check(final, target)


class TestServiceModel:
    def test_bootstrap_chain(self):
        chain = [ServiceState.DEFINED, ServiceState.LAUNCHING,
                 ServiceState.INITIALIZING, ServiceState.PUBLISHING,
                 ServiceState.READY, ServiceState.STOPPING,
                 ServiceState.STOPPED]
        for current, target in zip(chain, chain[1:]):
            SERVICE_MODEL.check(current, target)

    def test_cannot_become_ready_without_publishing(self):
        with pytest.raises(StateError):
            SERVICE_MODEL.check(ServiceState.INITIALIZING, ServiceState.READY)

    def test_failure_from_any_live_state(self):
        for state in (ServiceState.LAUNCHING, ServiceState.READY,
                      ServiceState.STOPPING):
            SERVICE_MODEL.check(state, ServiceState.FAILED)

    def test_stopped_requires_stopping(self):
        with pytest.raises(StateError):
            SERVICE_MODEL.check(ServiceState.READY, ServiceState.STOPPED)

    SERVICE_STATES = [
        ServiceState.DEFINED, ServiceState.LAUNCHING,
        ServiceState.INITIALIZING, ServiceState.PUBLISHING,
        ServiceState.READY, ServiceState.STOPPING, ServiceState.STOPPED,
        ServiceState.FAILED]

    #: the bootstrap chain plus universal failure edges
    SERVICE_LEGAL = {
        (ServiceState.DEFINED, ServiceState.LAUNCHING),
        (ServiceState.LAUNCHING, ServiceState.INITIALIZING),
        (ServiceState.INITIALIZING, ServiceState.PUBLISHING),
        (ServiceState.PUBLISHING, ServiceState.READY),
        (ServiceState.READY, ServiceState.STOPPING),
        (ServiceState.STOPPING, ServiceState.STOPPED),
    } | {(live, ServiceState.FAILED)
         for live in (ServiceState.DEFINED, ServiceState.LAUNCHING,
                      ServiceState.INITIALIZING, ServiceState.PUBLISHING,
                      ServiceState.READY, ServiceState.STOPPING)}

    @pytest.mark.parametrize("current", SERVICE_STATES)
    @pytest.mark.parametrize("target", SERVICE_STATES)
    def test_exhaustive_transition_enforcement(self, current, target):
        """Every (current, target) pair: legal iff in the whitelist."""
        if (current, target) in self.SERVICE_LEGAL:
            SERVICE_MODEL.check(current, target)
        else:
            with pytest.raises(StateError):
                SERVICE_MODEL.check(current, target)

    def test_final_service_states_absorb(self):
        for final in ServiceState.FINAL:
            for target in self.SERVICE_STATES:
                with pytest.raises(StateError):
                    SERVICE_MODEL.check(final, target)
