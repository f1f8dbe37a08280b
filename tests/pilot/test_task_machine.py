"""The task path under composed disturbance: a stateful machine at the
``Session`` API.

The session may carry a fault model (the injector crashes, degrades and
repairs nodes on its own clock, flaps busy fabric links and corrupts
arriving transfers) and the metrics plane.  Rules submit
tasks every way ``submit_tasks`` allows -- two batches through one shared
``SubmissionWindow`` included -- cancel them, fault them, crash and repair
nodes, register an observer that raises once, and move the clock; after
every rule no completed task may hold anything and no window may be over
capacity.  The teardown ends the pilot, which must take its fault records
with it, then quiesces: after that nothing may be left anywhere -- no slot,
no window slot, no feed queued at a window, no live daemon, no event on the
queue, no flow on a link, no transfer in flight -- and the sampler's last
sample is the quiesce-time one.  Only
public surface is used (plus ``TaskManager._live_load``), so the machine
runs unchanged against any implementation of the path.
"""

from unittest.mock import patch

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro import ObservabilityConfig
from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)
from repro.pilot.task import NO_SLOTS
from repro.pilot.task_manager import SubmissionWindow
from repro.resilience import (
    FaultModel,
    NodeFailure,
    ResilienceConfig,
    RetryPolicy,
    recovery,
)

#: states an observer may raise on.  On a transition of a live attempt the
#: exception fails that attempt; on a final state there is no attempt left
#: to charge: the task completes all the same and the exception surfaces,
#: once, from whatever call was driving the task (``_surfacing``).
RAISE_ON = [TaskState.TMGR_SCHEDULING, TaskState.TMGR_STAGING_INPUT,
            TaskState.AGENT_SCHEDULING, TaskState.AGENT_EXECUTING,
            TaskState.TMGR_STAGING_OUTPUT,
            TaskState.DONE, TaskState.FAILED, TaskState.CANCELED]

shapes = st.sampled_from([(1, 1), (16, 1), (64, 1), (64, 2), (8, 3)])
durations = st.sampled_from([0.0, 1.0, 30.0, 1000.0])
counts = st.integers(min_value=1, max_value=4)
#: index into the tasks submitted so far (taken modulo their number)
picks = st.integers(min_value=0, max_value=63)
node_faults = st.one_of(st.none(), st.builds(
    FaultModel, node_mtbf_s=st.sampled_from([60.0, 400.0, 3000.0]),
    node_mttr_s=st.sampled_from([0.0, 30.0, 300.0]),
    degraded_fraction=st.sampled_from([0.0, 0.5]),
    transfer_corrupt_prob=st.sampled_from([0.0, 0.3]),
    link_flap_mtbf_s=st.sampled_from([0.0, 20.0, 300.0])))
sample_intervals = st.one_of(st.none(), st.sampled_from([5.0, 60.0]))


def _boom():
    raise ValueError("payload failed")


class WatchedSession(Session):
    """A session that keeps every daemon it was ever given."""

    def __init__(self, **kwargs):
        self.every_daemon = []
        super().__init__(**kwargs)

    def add_daemon(self, daemon):
        self.every_daemon.append(daemon)
        super().add_daemon(daemon)


class TaskPathMachine(RuleBasedStateMachine):

    @initialize(seed=st.integers(min_value=0, max_value=20),
                warm=st.booleans(), faults=node_faults,
                sample_interval=sample_intervals)
    def start(self, seed, warm, faults, sample_interval):
        self.session = WatchedSession(
            seed=seed,
            resilience_config=ResilienceConfig(
                heartbeat_interval_s=50.0,
                retry=RetryPolicy(max_retries=2, backoff_base_s=2.0,
                                  rebind_wait_s=100.0),
                faults=faults),
            observability=(None if sample_interval is None else
                           ObservabilityConfig(
                               sample_interval_s=sample_interval)))
        # retries back off with up to 1 s of jitter, for this example only
        # (the teardown stops the patch)
        self.jitter = patch.object(recovery, "BACKOFF_JITTER_S", 1.0)
        self.jitter.start()
        self.pmgr = PilotManager(self.session)
        self.tmgr = TaskManager(self.session)
        (self.pilot,) = self.pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        self.tmgr.add_pilots(self.pilot)
        if warm:  # otherwise the first tasks wait for the pilot
            self.session.run(until=self.pmgr.wait_active([self.pilot]))
        self.tasks = []
        self.windows = []  # shared by two submissions each
        self.fired = {}
        self.raised = self.surfaced = 0  # by observers, on final states

    def _surfacing(self, call, *args):
        """Make *call*, again after each observer exception it surfaces."""
        while True:
            try:
                return call(*args)
            except RuntimeError as exc:
                if not str(exc).startswith("observer raised on"):
                    raise
                self.surfaced += 1

    def teardown(self):
        if not hasattr(self, "session"):
            return
        try:
            self._drain_and_check()
        finally:
            self.jitter.stop()

    def _drain_and_check(self):
        session, pilot = self.session, self.pilot
        self._surfacing(self.pmgr.cancel_pilots, pilot)
        self._surfacing(session.run, pilot.finished)
        ended_at = session.now
        # the pilot's end stops its fault records; quiesce would mask one
        # still armed, so give it time to fire first
        self._surfacing(session.run, session.now + 5000.0)
        injector = session.resilience.injector
        if injector is not None:
            assert all(r.at <= ended_at for r in injector.records), \
                injector.records
        quiesced_at = session.now
        session.quiesce()
        # bounded, so that a daemon re-arming forever fails, not hangs
        self._surfacing(session.run, session.now + 1e5)
        assert session.engine.peek() == float("inf")
        assert not [d for d in session.every_daemon if d.is_alive]
        if session.observability is not None:
            assert session.observability.metrics.sample_times[-1] \
                == quiesced_at
        assert session.engine.peek() == float("inf")
        assert [link.active_flows for link in
                session.data.transfers.links().values()
                if link.active_flows] == []
        assert session.data.inflight == {}
        assert self.surfaced == self.raised
        for task in self.tasks:
            assert self.fired.get(task.uid) == 1, (task, self.fired)
        self.nothing_left_on_completed_tasks()
        if pilot.nodes is not None:
            scheduler = pilot.agent.scheduler
            assert scheduler.held_tasks == []
            assert scheduler.queue_length == 0
            assert pilot.agent.executor.concurrent_launches == 0
            assert pilot.agent.executor.executing_count == 0
            for node in pilot.nodes:
                if node.is_up:
                    assert node.free_cores == node.num_cores, node.name
                    assert node.free_gpus == node.num_gpus, node.name
        assert self.tmgr._live_load(pilot) == 0
        for window in self.windows:  # every slot back, no feed left queued
            assert window.in_flight == 0, window.in_flight
            assert not window._waiters
        session.close()

    # -- submission ------------------------------------------------------------
    def _submit(self, descriptions, **kwargs):
        def on_complete(task):
            assert task.state in TaskState.FINAL, task
            self.fired[task.uid] = self.fired.get(task.uid, 0) + 1
        self.tasks.extend(self.tmgr.submit_tasks(
            descriptions, on_complete=on_complete, **kwargs))

    @rule(n=counts, shape=shapes, duration=durations,
          pre_exec=st.sampled_from([0.0, 2.0]),
          payload=st.sampled_from(["executable", "function", "raising"]))
    def submit_plain(self, n, shape, duration, pre_exec, payload):
        function = {"executable": None, "function": lambda: 7,
                    "raising": _boom}[payload]
        self._submit([TaskDescription(
            executable=None if function else "x", function=function,
            cores_per_rank=shape[0], ranks=shape[1], duration_s=duration,
            pre_exec_s=pre_exec) for _ in range(n)])

    @rule(n=counts, shape=shapes, duration=durations,
          in_bytes=st.sampled_from([1e6, 2e10]),
          out_bytes=st.sampled_from([0.0, 1e6, 2e10]),
          shared=st.booleans())
    def submit_staged(self, n, shape, duration, in_bytes, out_bytes, shared):
        base = len(self.tasks)
        self._submit([TaskDescription(
            executable="x", cores_per_rank=shape[0], ranks=shape[1],
            duration_s=duration,
            input_staging=[{"source": "shared" if shared else f"in-{base + i}",
                            "size_bytes": in_bytes}],
            output_staging=([{"target": f"out-{base + i}",
                              "size_bytes": out_bytes}] if out_bytes else []))
            for i in range(n)])

    @rule(n=st.integers(min_value=2, max_value=9), shape=shapes,
          duration=durations, window=st.integers(min_value=1, max_value=4),
          chunk_size=st.sampled_from([None, 1, 2, 3]),
          windowed=st.booleans())
    def submit_throttled(self, n, shape, duration, window, chunk_size,
                         windowed):
        kwargs = {"chunk_size": chunk_size}
        if windowed or chunk_size is None:
            kwargs["window"] = window
        self._submit([TaskDescription(
            executable="x", cores_per_rank=shape[0], ranks=shape[1],
            duration_s=duration) for _ in range(n)], **kwargs)

    @rule(capacity=st.integers(min_value=1, max_value=4),
          first=st.integers(min_value=1, max_value=6),
          second=st.integers(min_value=1, max_value=6),
          chunk_size=st.sampled_from([None, 2, 3]), shape=shapes,
          duration=durations)
    def submit_two_batches_through_one_window(self, capacity, first, second,
                                              chunk_size, shape, duration):
        """Two feeds queue at one window (the campaign's backpressure): the
        second may never overtake the first, and neither may strand a slot
        whatever is cancelled, faulted or raised on meanwhile."""
        window = SubmissionWindow(self.session.engine, capacity)
        self.windows.append(window)
        for n, chunk in ((first, chunk_size), (second, None)):
            self._submit([TaskDescription(
                executable="x", cores_per_rank=shape[0], ranks=shape[1],
                duration_s=duration) for _ in range(n)],
                window=window, chunk_size=chunk)

    # -- disturbance -----------------------------------------------------------
    def _pick(self, pick):
        return self.tasks[pick % len(self.tasks)]

    @rule(chosen=st.lists(picks, min_size=1, max_size=3))
    def cancel(self, chosen):
        if self.tasks:
            self._surfacing(self.tmgr.cancel_tasks,
                            [self._pick(pick) for pick in chosen])

    @rule(pick=picks, typed=st.booleans())
    def fault(self, pick, typed):
        if self.tasks:
            exc = (NodeFailure("elsewhere", self.pilot.uid) if typed
                   else RuntimeError("fault"))
            self._surfacing(self.tmgr.fail_task, self._pick(pick), exc)

    @rule(index=st.integers(min_value=0, max_value=1))
    def crash_node(self, index):
        if not self.pilot.is_active:
            return
        node = self.pilot.nodes[index]
        node.mark_down()
        for uid in self.pilot.agent.scheduler.held_on_node(index):
            self._surfacing(self.tmgr.fail_task, self.tmgr.get(uid),
                            NodeFailure(node.name, self.pilot.uid))

    @rule(index=st.integers(min_value=0, max_value=1))
    def repair_node(self, index):
        if self.pilot.is_active:
            self.pilot.nodes[index].mark_up()
            self.pilot.agent.scheduler.kick()

    @rule(state=st.sampled_from(RAISE_ON))
    def observer_raises_once(self, state):
        armed = [True]

        def observer(task, new_state):
            if armed[0] and new_state == state:
                armed[0] = False
                self.raised += state in TaskState.FINAL
                raise RuntimeError(f"observer raised on {state}")
        self.tmgr.register_callback(observer)

    @rule(step=st.sampled_from([0.0, 0.5, 3.0, 20.0, 200.0, 2000.0]))
    def advance_clock(self, step):
        self._surfacing(self.session.run, self.session.now + step)

    # -- invariants ------------------------------------------------------------
    @invariant()
    def nothing_left_on_completed_tasks(self):
        if not hasattr(self, "session"):
            return
        assert self.surfaced == self.raised
        held = (set(self.pilot.agent.scheduler.held_tasks)
                if self.pilot.agent is not None else set())
        for task in self.tasks:
            assert self.fired.get(task.uid, 0) <= 1, task
            if task.completed.triggered:
                assert task.state in TaskState.FINAL, task
                assert task.slots is NO_SLOTS, task  # released
                assert task.uid not in held, task

    @invariant()
    def flows_and_transfers_in_flight_belong_to_staging_tasks(self):
        """Each directive of a task in a staging state moves at most one
        flow and registers at most one in-flight transfer; a cancelled or
        failed staging call took its own off the links and the table."""
        if not hasattr(self, "session"):
            return
        directives = sum(
            len(t.description.input_staging)
            + len(t.description.output_staging) for t in self.tasks
            if t.state in (TaskState.TMGR_STAGING_INPUT,
                           TaskState.TMGR_STAGING_OUTPUT))
        links = self.session.data.transfers.links().values()
        assert sum(link.active_flows for link in links) <= directives
        assert len(self.session.data.inflight) <= directives

    @invariant()
    def shared_windows_stay_within_capacity(self):
        for window in getattr(self, "windows", ()):
            assert 0 <= window.in_flight <= window.capacity, window.in_flight
            assert window.peak <= window.capacity

    @invariant()
    def executor_counters_match_the_tasks_in_those_phases(self):
        if not hasattr(self, "session") or self.pilot.agent is None:
            return
        last = {}
        for task in self.tasks:
            if task.state == TaskState.AGENT_EXECUTING:
                last[task.uid] = \
                    self.session.profiler.events(task.uid)[-1].event
        executor = self.pilot.agent.executor
        assert executor.concurrent_launches == \
            sum(1 for event in last.values() if event == "launch_start")
        assert executor.executing_count == \
            sum(1 for event in last.values() if event == "exec_start")


TaskPathMachine.TestCase.settings = settings(
    max_examples=100, stateful_step_count=40, deadline=None)
test_task_path_machine = TaskPathMachine.TestCase
