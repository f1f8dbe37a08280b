"""Tests for the agent scheduler (placement, priority, colocation).

A grant lands on the landing handed to ``schedule``: the tests hand over
``landed.append`` and read what landed, in order."""

import sys

import pytest

from repro.hpc import NodeList
from repro.pilot import Session, TaskDescription
from repro.pilot.agent.scheduler import AgentScheduler, SchedulerError
from repro.pilot.task import Task


@pytest.fixture
def session():
    with Session(seed=0) as s:
        yield s


@pytest.fixture
def landed():
    """The tasks whose grants landed, in landing order."""
    return []


def make_scheduler(session, n_nodes=2, cores=8, gpus=4, mem=64.0):
    nodes = NodeList.build(n_nodes, cores, gpus, mem)
    return AgentScheduler(session, nodes, "pilot.test"), nodes


def make_task(session, **kwargs):
    desc = TaskDescription(executable="x", **kwargs)
    return Task(session, desc, session.ids.generate("task"))


class TestPlacement:
    def test_single_rank_placement(self, session, landed):
        sched, nodes = make_scheduler(session)
        task = make_task(session, cores_per_rank=2, gpus_per_rank=1)
        sched.schedule(task, landed.append)
        assert landed == []              # the grant lands one entry later
        session.run()
        assert landed == [task]
        slots = task.slots
        assert len(slots) == 1
        assert len(slots[0].cores) == 2 and len(slots[0].gpus) == 1
        assert nodes.total_free_cores == 14

    def test_multi_rank_atomic_placement(self, session, landed):
        sched, nodes = make_scheduler(session, n_nodes=2, cores=8)
        task = make_task(session, ranks=4, cores_per_rank=4)
        sched.schedule(task, landed.append)
        session.run()
        assert landed == [task] and len(task.slots) == 4
        assert nodes.total_free_cores == 0

    def test_queue_until_release(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        t1 = make_task(session, cores_per_rank=4)
        t2 = make_task(session, cores_per_rank=4)
        sched.schedule(t1, landed.append)
        sched.schedule(t2, landed.append)
        session.run()
        assert landed == [t1]
        assert sched.queue_length == 1
        sched.release(t1)
        session.run()
        assert landed == [t1, t2]

    def test_infeasible_request_fails_fast(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=2, cores=4, gpus=1)
        too_wide = make_task(session, cores_per_rank=5)  # no node has 5 cores
        with pytest.raises(SchedulerError, match="never fit"):
            sched.schedule(too_wide, landed.append)
        assert sched.queue_length == 0

    def test_too_many_total_cores_fails_fast(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=2, cores=4)
        task = make_task(session, ranks=3, cores_per_rank=4)
        with pytest.raises(SchedulerError):
            sched.schedule(task, landed.append)

    def test_partial_placement_rolls_back(self, session, landed):
        # 2 nodes x 4 cores; a 2-rank x 3-core task fits nowhere together
        # with an existing 2-core task on each node.
        sched, nodes = make_scheduler(session, n_nodes=2, cores=4)
        a = make_task(session, cores_per_rank=2)
        b = make_task(session, cores_per_rank=2)
        sched.schedule(a, landed.append)
        sched.schedule(b, landed.append)
        wide = make_task(session, ranks=2, cores_per_rank=3)
        sched.schedule(wide, landed.append)
        session.run()
        # nothing leaked: free cores unchanged by failed placement attempts
        assert landed == [a, b]
        assert nodes.total_free_cores == 4
        assert sched.queue_length == 1

    def test_double_schedule_rejected(self, session, landed):
        sched, _ = make_scheduler(session)
        task = make_task(session)
        sched.schedule(task, landed.append)
        with pytest.raises(SchedulerError, match="already holds"):
            sched.schedule(task, landed.append)
        session.run()
        assert landed == [task]

    def test_double_queue_rejected(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=2)
        sched.schedule(make_task(session, cores_per_rank=2), landed.append)
        task = make_task(session, cores_per_rank=2)
        sched.schedule(task, landed.append)
        with pytest.raises(SchedulerError, match="already queued"):
            sched.schedule(task, landed.append)
        assert sched.queue_length == 1

    def test_release_unknown_task_rejected(self, session):
        sched, _ = make_scheduler(session)
        with pytest.raises(SchedulerError, match="holds no slots"):
            sched.release(make_task(session))

    def test_withdraw_queued_request(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=2)
        t1 = make_task(session, cores_per_rank=2)
        t2 = make_task(session, cores_per_rank=2)
        sched.schedule(t1, landed.append)
        sched.schedule(t2, landed.append)
        assert sched.withdraw(t2)
        assert not sched.withdraw(t2)
        assert sched.queue_length == 0


class TestLanding:
    """A grant is made at once and lands one zero-delay kernel entry
    later, through the handle in ``task.wait``."""

    def test_schedule_returns_nothing_and_the_handle_is_task_wait(
            self, session, landed):
        sched, _ = make_scheduler(session)
        task = make_task(session)
        assert sched.schedule(task, landed.append) is None
        assert task.slots and task.wait is not None
        assert session.engine.peek() == 0.0   # the landing, queued
        session.run()
        assert landed == [task]

    def test_a_release_grants_at_once_and_lands_one_entry_later(
            self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        t1 = make_task(session, cores_per_rank=4)
        t2 = make_task(session, cores_per_rank=4)
        sched.schedule(t1, landed.append)
        sched.schedule(t2, landed.append)
        session.run()
        assert not t2.slots
        sched.release(t1)
        assert t2.slots and sched.queue_length == 0
        assert landed == [t1]
        session.run()
        assert landed == [t1, t2]

    def test_cancelling_task_wait_drops_the_landing_not_the_grant(
            self, session, landed):
        sched, nodes = make_scheduler(session, n_nodes=1, cores=4)
        task = make_task(session, cores_per_rank=4)
        sched.schedule(task, landed.append)
        task.wait.cancel()
        session.run()
        assert landed == []
        assert sched.held_tasks == [task.uid] and nodes.total_free_cores == 0

    def test_withdraw_at_the_grant_instant_returns_the_slots(
            self, session, landed):
        sched, nodes = make_scheduler(session, n_nodes=1, cores=4)
        t1 = make_task(session, cores_per_rank=4)
        t2 = make_task(session, cores_per_rank=4)
        sched.schedule(t1, landed.append)
        sched.schedule(t2, landed.append)
        session.run()
        sched.release(t1)                  # t2 granted, its landing queued
        assert not sched.withdraw(t2)      # nothing was queued any more ...
        assert sched.held_tasks == [] and not t2.slots
        assert nodes.total_free_cores == 4  # ... and the slots came back
        t2.wait.cancel()                   # the requester drops its landing
        session.run()
        assert landed == [t1]

    def test_a_refused_request_leaves_no_kernel_entry(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        task = make_task(session, cores_per_rank=8)
        with pytest.raises(SchedulerError, match="never fit"):
            sched.schedule(task, landed.append)
        assert session.engine.peek() == float("inf")
        assert not task.slots and sched.held_tasks == []


class TestPriority:
    def test_higher_priority_served_first(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=2)
        blocker = make_task(session, cores_per_rank=2)
        sched.schedule(blocker, landed.append)
        low = make_task(session, cores_per_rank=2, priority=0)
        high = make_task(session, cores_per_rank=2, priority=100)
        sched.schedule(low, landed.append)
        sched.schedule(high, landed.append)
        session.run()
        sched.release(blocker)
        session.run()
        assert landed == [blocker, high]

    def test_small_low_priority_can_backfill(self, session, landed):
        # RP's continuous scheduler starts anything that fits.
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        hog = make_task(session, cores_per_rank=3)
        sched.schedule(hog, landed.append)
        big_high = make_task(session, cores_per_rank=4, priority=50)
        small_low = make_task(session, cores_per_rank=1, priority=0)
        sched.schedule(big_high, landed.append)
        sched.schedule(small_low, landed.append)
        session.run()
        assert landed == [hog, small_low]  # used the leftover core


class TestHotPath:
    """Event-driven rescans: placement work is O(feasible), not O(queue)."""

    def test_single_kick_grants_all_feasible(self, session, landed):
        # 1 node x 8 cores, blocked by an 8-core hog; 10 x 2-core waiters.
        sched, _ = make_scheduler(session, n_nodes=1, cores=8)
        hog = make_task(session, cores_per_rank=8)
        sched.schedule(hog, landed.append)
        waiters = [make_task(session, cores_per_rank=2) for _ in range(10)]
        for task in waiters:
            sched.schedule(task, landed.append)
        session.run()
        assert sched.queue_length == 10
        before = sched.stats.place_attempts
        granted_before = sched.stats.grants
        sched.release(hog)  # single capacity increase
        session.run()
        # all four that fit were granted by the one kick
        assert landed == [hog] + waiters[:4]
        assert sched.queue_length == 6
        # 4 successful placements and no failed probe: once the node is
        # full the shape's fit mask is empty and its next head is parked
        # unattempted -- not a rescan of all 10 entries after
        # every grant, and not even one doomed _place
        assert sched.stats.place_attempts - before == 4
        assert sched.stats.grants - granted_before == 4

    def test_qualification_is_exact(self, session, landed):
        # Free cores sit on node 1, the free GPU on node 0: per-dimension
        # maxima over the pool (3 cores, 1 GPU) would admit a 2-core +
        # 1-GPU rank although no single node fits it.  The fit mask is per
        # node, so the shape stays parked without a doomed _place.
        sched, nodes = make_scheduler(session, n_nodes=2, cores=4, gpus=1)
        gpu_hog = make_task(session, cores_per_rank=1, gpus_per_rank=1)
        core_hog = make_task(session, cores_per_rank=3)
        sched.schedule(gpu_hog, landed.append)
        sched.schedule(core_hog, landed.append)
        assert gpu_hog.slots[0].node_index == 0
        assert core_hog.slots[0].node_index == 1
        waiter = make_task(session, cores_per_rank=2, gpus_per_rank=1)
        sched.schedule(waiter, landed.append)  # probed once, memoised
        assert max(n.free_cores for n in nodes) >= 2
        assert max(n.free_gpus for n in nodes) >= 1
        assert nodes._fit_masks[2, 1, 0.0] == 0
        before = sched.stats.place_attempts
        sched.kick()
        session.run()
        assert sched.stats.place_attempts == before  # not even attempted
        assert waiter not in landed and sched.queue_length == 1
        sched.release(core_hog)  # node 1 now fits all three dimensions
        session.run()
        assert landed[-1] is waiter and waiter.slots[0].node_index == 1

    def test_split_maxima_mix_pays_no_failed_attempt(self, session, landed):
        # A GPU-bound shape and a whole-node shape queue on a pool whose
        # free cores and free GPU keep ending up on different nodes: once
        # each shape is parked (one probe each), every wake-up, kick and
        # in-pass re-offer that follows attempts only what it can grant.
        sched, nodes = make_scheduler(session, n_nodes=2, cores=4, gpus=1)
        gpu_hog = make_task(session, cores_per_rank=1, gpus_per_rank=1)
        core_hog = make_task(session, cores_per_rank=3)
        sched.schedule(gpu_hog, landed.append)   # node 0: 3c/0g free
        sched.schedule(core_hog, landed.append)  # node 1: 1c/1g free
        gpu_bound = [make_task(session, cores_per_rank=2, gpus_per_rank=1)
                     for _ in range(3)]
        whole = [make_task(session, cores_per_rank=4) for _ in range(2)]
        for task in gpu_bound + whole:
            sched.schedule(task, landed.append)
        session.run()
        assert sched.queue_length == 5
        attempts, granted = sched.stats.place_attempts, sched.stats.grants
        sched.kick()
        # node 0 fits gpu_bound[0]; what is left is split again (2c | 1g)
        sched.release(gpu_hog)
        sched.release(core_hog)      # node 1 fits gpu_bound[1]
        sched.release(gpu_bound[0])  # node 0 fits gpu_bound[2], not `whole`
        session.run()
        assert landed == [gpu_hog, core_hog] + gpu_bound
        assert sched.stats.grants - granted == 3
        assert sched.stats.place_attempts - attempts == 3

    def test_submit_into_infeasible_shape_skips_placement(self, session,
                                                          landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        hog = make_task(session, cores_per_rank=4)
        sched.schedule(hog, landed.append)
        first = make_task(session, cores_per_rank=4)
        sched.schedule(first, landed.append)  # probes once, memoises
        attempts = sched.stats.place_attempts
        for _ in range(50):
            sched.schedule(make_task(session, cores_per_rank=4),
                           landed.append)
        assert sched.stats.place_attempts == attempts  # all memo hits
        assert sched.stats.memo_hits >= 50
        assert sched.queue_length == 51

    def test_a_shape_full_after_a_grant_stays_parked_with_withdrawn_entries(
            self, session, landed):
        # The grant that fills the node leaves the shape only a withdrawn
        # entry: the shape is parked all the same, so the next request of
        # it is a memo hit, not a doomed probe (SchedulerStats as before)
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        hog = make_task(session, cores_per_rank=4)
        sched.schedule(hog, landed.append)
        a, b, c = (make_task(session, cores_per_rank=2) for _ in range(3))
        for task in (a, b, c):
            sched.schedule(task, landed.append)
        assert sched.withdraw(c)
        sched.release(hog)
        session.run()
        assert landed == [hog, a, b]
        assert sched.stats.as_dict() == {
            "place_attempts": 4, "grants": 3, "passes": 1, "memo_hits": 2}
        sched.schedule(make_task(session, cores_per_rank=2), landed.append)
        assert sched.stats.as_dict() == {
            "place_attempts": 4, "grants": 3, "passes": 1, "memo_hits": 3}
        assert sched.queue_length == 1

    def test_distinct_shape_still_probed_after_memo(self, session, landed):
        # memoising one shape must not block a smaller one (backfill)
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        hog = make_task(session, cores_per_rank=3)
        sched.schedule(hog, landed.append)
        sched.schedule(make_task(session, cores_per_rank=4),
                       landed.append)  # memoised
        small = make_task(session, cores_per_rank=1)
        sched.schedule(small, landed.append)
        session.run()
        assert landed == [hog, small]  # backfilled the leftover core


def drain_cyclic_bag(scheduler_cls, n_shapes, n_tasks, n_nodes=1024):
    """Single-rank tasks cycling through *n_shapes* rank shapes (shape k
    asks ``1 + k % 8`` cores and ``k // 8`` GB), each released at its
    grant.  Returns (wall seconds, grants in order with their slots,
    scheduler).  The reference scheduler's grants are events; the
    scheduler's land on ``granted``."""
    import time

    grants = []
    with Session(seed=0, profile="off") as session:
        nodes = NodeList.build(n_nodes, 64, 0, 256.0)
        sched = scheduler_cls(session, nodes, "pilot.bag")
        descs = [TaskDescription(executable="x", cores_per_rank=1 + k % 8,
                                 mem_per_rank_gb=float(k // 8))
                 for k in range(n_shapes)]

        def granted(task, slots=None):
            grants.append((task.uid, task.slots if slots is None else slots))
            sched.release(task)

        t0 = time.perf_counter()
        for i in range(n_tasks):
            task = Task(session, descs[i % n_shapes], f"t{i}")
            if scheduler_cls is AgentScheduler:
                sched.schedule(task, granted)
            else:
                sched.schedule(task).callbacks.append(
                    lambda event, task=task: granted(task, event.value))
        session.run()
        return time.perf_counter() - t0, grants, sched


class TestFitMaskTable:
    """A bag with one rank shape more than the old fixed 64-entry table
    cleared it on every query, rebuilding an O(nodes) mask per task."""

    def test_65_shapes_cost_what_64_do(self):
        def best_of_three(n_shapes):
            runs = [drain_cyclic_bag(AgentScheduler, n_shapes, 3000)
                    for _ in range(3)]
            return min(wall for wall, _, _ in runs), runs[0][2]

        wall_64, _ = best_of_three(64)
        wall_65, sched = best_of_three(65)
        assert len(sched.nodes._fit_masks) == 65  # every shape stays tracked
        assert sched.stats.grants == 3000
        assert wall_65 <= 1.5 * wall_64

    @pytest.mark.parametrize("n_shapes", [64, 65])
    def test_cyclic_bag_grants_match_the_reference(self, n_shapes):
        from reference_scheduler import ReferenceScheduler
        _, indexed, _ = drain_cyclic_bag(AgentScheduler, n_shapes, 500)
        _, reference, _ = drain_cyclic_bag(ReferenceScheduler, n_shapes, 500)
        assert len(indexed) == 500
        assert indexed == reference


class TestWithdrawAndCrashPaths:
    """Regression pins for cancel-while-queued and node-crash handling."""

    def test_cancel_while_queued_never_grants(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=4)
        hog = make_task(session, cores_per_rank=4)
        sched.schedule(hog, landed.append)
        victims = [make_task(session, cores_per_rank=4) for _ in range(3)]
        for task in victims:
            sched.schedule(task, landed.append)
        assert sched.withdraw(victims[1])
        assert sched.queue_length == 2
        sched.release(hog)
        session.run()
        # head waiter granted, withdrawn one skipped, third still queued
        assert landed == [hog, victims[0]]
        assert sched.queue_length == 1

    def test_withdraw_then_reschedule_same_task(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=2)
        hog = make_task(session, cores_per_rank=2)
        sched.schedule(hog, landed.append)
        task = make_task(session, cores_per_rank=2)
        sched.schedule(task, landed.append)
        assert sched.withdraw(task)
        sched.schedule(task, landed.append)  # retry path re-enters the queue
        sched.release(hog)
        session.run()
        assert landed == [hog, task]

    def test_withdrawing_the_last_queued_request_drops_the_table(
            self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=1, cores=2)
        sched.schedule(make_task(session, cores_per_rank=2), landed.append)
        queued = [make_task(session, cores_per_rank=2) for _ in range(100)]
        for task in queued:
            sched.schedule(task, landed.append)
        table = sched._entries
        for task in queued:
            assert sched.withdraw(task)
        assert sched.queue_length == 0
        assert sched._entries is not table
        assert sys.getsizeof(sched._entries) == sys.getsizeof({})

    def test_held_on_node_index_tracks_grants_and_releases(self, session,
                                                          landed):
        sched, nodes = make_scheduler(session, n_nodes=2, cores=4)
        a = make_task(session, cores_per_rank=1)
        b = make_task(session, ranks=2, cores_per_rank=2)  # spans node slots
        sched.schedule(a, landed.append)
        sched.schedule(b, landed.append)
        for node in nodes:
            expected = sorted(t.uid for t in (a, b)
                              if any(s.node_index == node.index
                                     for s in t.slots))
            assert sorted(sched.held_on_node(node.index)) == expected
        sched.release(a)
        assert a.uid not in sched.held_on_node(0)
        sched.release(b)
        assert sched.held_on_node(0) == [] and sched.held_on_node(1) == []

    def test_held_on_node_lists_holders_in_grant_order(self, session,
                                                       landed):
        # the fault injector kills held_on_node(crashed) in this order
        sched, nodes = make_scheduler(session, n_nodes=2, cores=4)
        a = make_task(session, cores_per_rank=1)
        b = make_task(session, ranks=2, cores_per_rank=3)
        c = make_task(session, cores_per_rank=1)
        for task in (a, b, c):
            sched.schedule(task, landed.append)
        assert [s.node_index for s in a.slots] == [0]
        assert [s.node_index for s in b.slots] == [1, 0]  # spans both
        assert [s.node_index for s in c.slots] == [1]
        assert sched.held_on_node(0) == [a.uid, b.uid]
        assert sched.held_on_node(1) == [b.uid, c.uid]
        sched.release(a)
        assert sched.held_on_node(0) == [b.uid]
        sched.schedule(a, landed.append)  # granted again: now the latest
        assert [s.node_index for s in a.slots] == [0]
        assert sched.held_on_node(0) == [b.uid, a.uid]
        assert sched.held_on_node(1) == [b.uid, c.uid]

    def test_node_crash_reports_resident_tasks_only(self, session, landed):
        # the fault injector kills exactly held_on_node(crashed) tasks
        sched, nodes = make_scheduler(session, n_nodes=2, cores=2)
        on0 = make_task(session, cores_per_rank=2)
        on1 = make_task(session, cores_per_rank=2)
        sched.schedule(on0, landed.append)
        sched.schedule(on1, landed.append)
        session.run()
        crashed = on0.slots[0].node_index
        nodes[crashed].mark_down()
        victims = sched.held_on_node(crashed)
        assert victims == [on0.uid]
        # crash-release + repair + kick lets a waiter through again
        waiter = make_task(session, cores_per_rank=2)
        sched.schedule(waiter, landed.append)
        sched.release(on0)
        session.run()
        assert waiter not in landed  # crashed node is still down
        nodes[crashed].mark_up()
        sched.kick()
        session.run()
        assert landed == [on0, on1, waiter]


class TestColocation:
    def test_colocated_tasks_share_node(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=4, cores=8)
        tasks = [make_task(session, cores_per_rank=1,
                           tags={"colocate": "groupA"}) for _ in range(3)]
        for task in tasks:
            sched.schedule(task, landed.append)
        session.run()
        assert landed == tasks
        assert len({t.slots[0].node_index for t in tasks}) == 1

    def test_uncolocated_tasks_spread_round_robin(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=4, cores=8)
        tasks = [make_task(session, cores_per_rank=1) for _ in range(4)]
        for task in tasks:
            sched.schedule(task, landed.append)
        session.run()
        assert landed == tasks
        assert len({t.slots[0].node_index for t in tasks}) == 4

    def test_full_colocation_node_queues_group_member(self, session, landed):
        sched, _ = make_scheduler(session, n_nodes=2, cores=2)
        first = make_task(session, cores_per_rank=2,
                          tags={"colocate": "g"})
        sched.schedule(first, landed.append)
        second = make_task(session, cores_per_rank=1,
                           tags={"colocate": "g"})
        sched.schedule(second, landed.append)
        session.run()
        assert landed == [first]  # pinned node is full; waits
        sched.release(first)
        session.run()
        assert landed == [first, second]


class TestRepairWakeup:
    """mark_up alone (no explicit kick) must wake memoised shapes."""

    def test_repair_without_kick_grants_queued_task(self, session, landed):
        sched, nodes = make_scheduler(session, n_nodes=1, cores=4)
        nodes[0].mark_down()
        task = make_task(session, cores_per_rank=2)
        sched.schedule(task, landed.append)  # probes, fails, memoises
        assert sched.queue_length == 1
        nodes[0].mark_up()  # public API, no kick() -- must still rescan
        session.run()
        assert landed == [task]
        assert sched.queue_length == 0

    def test_repair_without_kick_wakes_submit_path(self, session, landed):
        sched, nodes = make_scheduler(session, n_nodes=1, cores=4)
        nodes[0].mark_down()
        blocked = make_task(session, cores_per_rank=2)
        sched.schedule(blocked, landed.append)
        nodes[0].mark_up()
        # submitting the same shape after the repair must probe again
        late = make_task(session, cores_per_rank=2)
        sched.schedule(late, landed.append)
        session.run()
        assert landed == [blocked, late]


def test_a_drained_bag_gives_the_entry_table_back():
    """The uid -> entry table grew to the bag's queue depth; once the last
    queued request is granted it is an empty dict's size again."""
    from repro.pilot import PilotDescription, PilotManager, TaskManager
    with Session(seed=0) as session:
        pmgr, tmgr = PilotManager(session), TaskManager(session)
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource="frontier", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        session.run(until=pmgr.wait_active([pilot]))
        tasks = tmgr.submit_tasks([
            TaskDescription(executable="x", duration_s=60.0,
                            cores_per_rank=1 + i % 4) for i in range(5_000)])
        session.run(until=session.now + 1.0)
        sched = pilot.agent.scheduler
        assert sched.queue_length > 4_000
        assert sys.getsizeof(sched._entries) > 100 * sys.getsizeof({})
        session.run(until=tmgr.wait_tasks(tasks))
        assert sched.queue_length == 0
        assert sys.getsizeof(sched._entries) == sys.getsizeof({})
