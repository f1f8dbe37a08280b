"""Property-based tests (hypothesis) on core data structures and invariants.

Each property encodes an invariant the runtime's correctness rests on:
no resource double-booking, state machines without shortcuts, FIFO
delivery, conservation of scheduled capacity, statistical post-processing
laws.
"""

import copy
import heapq
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hpc import NodeList, NodeState
from repro.pilot import Session, TaskDescription
from repro.pilot.agent.scheduler import AgentScheduler, SchedulerError
from repro.pilot.states import (
    SERVICE_MODEL,
    TASK_MODEL,
    ServiceState,
    StateError,
    TaskState,
)
from repro.pilot.task import Task
from repro.sim import RngHub, SimulationEngine, Store
from repro.sim.events import NORMAL, URGENT
from repro.workflows.pathways import benjamini_hochberg
from repro.analytics import dist_stats


# ---------------------------------------------------------------------------
# DES engine
# ---------------------------------------------------------------------------

@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=50))
def test_engine_processes_events_in_time_order(delays):
    engine = SimulationEngine()
    seen = []

    def proc(delay):
        yield engine.timeout(delay)
        seen.append(engine.now)

    for delay in delays:
        engine.process(proc(delay))
    engine.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
    assert engine.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0,
                                 allow_nan=False), min_size=1, max_size=30),
       deadline=st.floats(min_value=0.0, max_value=120.0, allow_nan=False))
def test_engine_run_until_deadline_never_overshoots(delays, deadline):
    engine = SimulationEngine()
    fired = []

    def proc(delay):
        yield engine.timeout(delay)
        fired.append(delay)

    for delay in delays:
        engine.process(proc(delay))
    engine.run(until=deadline)
    assert engine.now == deadline
    assert all(d <= deadline for d in fired)
    assert sorted(fired) == sorted(d for d in delays if d <= deadline)


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
def test_store_is_fifo(items):
    engine = SimulationEngine()
    store = Store(engine)
    for item in items:
        store.put_nowait(item)
    gets = [store.get() for _ in items]
    engine.run()
    assert [g.value for g in gets] == items


# ---------------------------------------------------------------------------
# Node accounting / scheduler
# ---------------------------------------------------------------------------

@given(st.data())
def test_node_allocation_conserves_resources(data):
    cores = data.draw(st.integers(min_value=1, max_value=32))
    gpus = data.draw(st.integers(min_value=0, max_value=8))
    node = NodeState(0, "n0", cores, gpus, 64.0)
    live = []
    for _ in range(data.draw(st.integers(min_value=1, max_value=20))):
        if live and data.draw(st.booleans()):
            node.release(live.pop())
        else:
            want_c = data.draw(st.integers(min_value=0, max_value=cores))
            want_g = data.draw(st.integers(min_value=0, max_value=max(gpus, 0)))
            if node.fits(want_c, want_g):
                live.append(node.allocate(want_c, want_g))
        # invariant: free + held == total, and held indices are disjoint
        held_cores = [c for slot in live for c in slot.cores]
        held_gpus = [g for slot in live for g in slot.gpus]
        assert len(held_cores) == len(set(held_cores))
        assert len(held_gpus) == len(set(held_gpus))
        assert node.free_cores + len(held_cores) == cores
        assert node.free_gpus + len(held_gpus) == gpus


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_scheduler_never_oversubscribes(data):
    """Random schedule/release traffic keeps every core/GPU single-owner.

    Accounting is over *all* tasks ever created: slots are assigned eagerly
    at grant time, so ``task.slots`` is the ground truth regardless of when
    the grant's landing runs.  Infeasible requests are refused and must
    leave capacity untouched.  Requests
    randomly carry data-affinity tags: the soft node preference must never
    weaken the invariant.
    """
    with Session(seed=0) as session:
        n_nodes = data.draw(st.integers(min_value=1, max_value=4))
        cores = data.draw(st.integers(min_value=2, max_value=16))
        gpus = data.draw(st.integers(min_value=0, max_value=4))
        nodes = NodeList.build(n_nodes, cores, gpus, 64.0)
        sched = AgentScheduler(session, nodes, "pilot.prop")
        tasks, landed = [], []
        for i in range(data.draw(st.integers(min_value=1, max_value=30))):
            holders = [t for t in tasks if t.slots]
            if holders and data.draw(st.booleans()):
                sched.release(holders[data.draw(st.integers(
                    min_value=0, max_value=len(holders) - 1))])
            else:
                tags = {}
                if data.draw(st.booleans()):
                    tags["affinity"] = data.draw(st.sampled_from("xyz"))
                desc = TaskDescription(
                    executable="x",
                    tags=tags,
                    ranks=data.draw(st.integers(min_value=1, max_value=2)),
                    cores_per_rank=data.draw(
                        st.integers(min_value=1, max_value=cores)),
                    gpus_per_rank=data.draw(
                        st.integers(min_value=0, max_value=max(gpus, 0))))
                task = Task(session, desc, f"t{i}")
                try:
                    sched.schedule(task, landed.append)
                except SchedulerError:
                    pass  # infeasible: expected, not an error
                else:
                    tasks.append(task)
                session.run()
            # invariant: every core/GPU is free or owned by exactly one slot
            used_cores = sum(s.n_cores for t in tasks for s in t.slots)
            used_gpus = sum(s.n_gpus for t in tasks for s in t.slots)
            assert nodes.total_free_cores + used_cores == n_nodes * cores
            assert nodes.total_free_gpus + used_gpus == n_nodes * gpus
            for node in nodes:
                assert 0 <= node.free_cores <= cores
                assert 0 <= node.free_gpus <= gpus


def _linear_find_fit(nodes, cores, gpus, mem_gb, start, avoid):
    """The seed's O(n) first-fit scan, kept as the query oracle."""
    n = len(nodes)
    deferred = None
    for off in range(n):
        node = nodes[(start + off) % n]
        if node.fits(cores, gpus, mem_gb):
            if avoid and node.name in avoid:
                deferred = deferred or node
                continue
            return node
    return deferred


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_free_capacity_index_matches_linear_scan(data):
    """find_fit through the fit masks == the seed's linear scan.

    Random allocate/release/health traffic, then find_fit queries with
    random starts and avoid sets: the index must return the *identical*
    node (not just an equivalent one) for every query, and "some node
    fits" must be exact.  The inputs cover what a bit mask can get wrong:
    pools wider than one machine word (saturated, so fits lie far apart),
    memory requests either side of ``NodeState.fits``' 1e-9 slack,
    zero-core requests, a few shapes asked about again and again (their
    masks live through every node change in between) and more distinct
    shapes in one run than the mask table tracks.
    """
    n_nodes = data.draw(st.one_of(st.integers(1, 6), st.integers(7, 100)))
    cores = data.draw(st.integers(min_value=1, max_value=8))
    gpus = data.draw(st.integers(min_value=0, max_value=3))
    nodes = NodeList.build(n_nodes, cores, gpus, 32.0)
    names = [n.name for n in nodes]
    mem_amounts = st.builds(
        lambda whole, step: max(0.0, whole + step), st.integers(0, 32),
        st.sampled_from([0.0, 0.0, 5e-10, 1e-9, -1e-9, 2e-9, 0.5]))
    rank_shapes = st.tuples(st.integers(0, cores), st.integers(0, gpus),
                            mem_amounts)
    recurring = data.draw(st.lists(rank_shapes, min_size=1, max_size=4))
    queried_shapes = st.one_of(st.sampled_from(recurring), rank_shapes)

    def check(shape, start, avoid):
        assert nodes.find_fit(*shape, start, avoid) \
            is _linear_find_fit(nodes, *shape, start, avoid)
        assert bool(nodes.fit_mask(*shape)) \
            == any(n.fits(*shape) for n in nodes)

    live = []
    if data.draw(st.booleans()):  # saturated pool: fits lie far apart
        live = [node.allocate(cores) for node in nodes]
    for _ in range(data.draw(st.integers(min_value=1, max_value=40))):
        op = data.draw(st.sampled_from(
            ["alloc", "alloc", "release", "release", "health", "query",
             "flood"]))
        touched = data.draw(st.integers(0, n_nodes - 1))
        if op == "alloc":
            node = nodes[touched]
            want = data.draw(queried_shapes)
            if node.fits(*want):
                live.append(node.allocate(*want))
        elif op == "release" and live:
            slot = live.pop(data.draw(st.integers(0, len(live) - 1)))
            touched = slot.node_index
            nodes[touched].release(slot)
        elif op == "health":
            node = nodes[touched]
            data.draw(st.sampled_from([
                node.mark_down, node.mark_degraded, node.mark_up]))()
        elif op == "flood":  # overflow the table; old shapes stay correct
            want_c = data.draw(st.integers(0, cores))
            for k in range(nodes._max_shapes + 2):
                check((want_c, 0, k * 0.25), touched, None)
        # every operation is followed by a query that scans from (or just
        # past) the node it touched
        check(data.draw(queried_shapes),
              (touched + data.draw(st.integers(0, 1))) % n_nodes,
              set(data.draw(st.lists(st.sampled_from(names), max_size=3))))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_indexed_scheduler_matches_reference(data):
    """The indexed scheduler is observably identical to the seed algorithm.

    Randomized submit/release/withdraw/crash-repair traffic (with random
    priorities, multi-rank requests, colocate groups, affinity hints and
    avoid sets) replays through the production :class:`AgentScheduler` and
    the :class:`ReferenceScheduler` (the seed's quadratic implementation,
    kept as executable spec).  After every operation both sessions run
    dry, and grant *order*, the order in which the grants' landings run
    (the reference's: its grant events' processing), slot *assignments*,
    queue lengths and per-node free capacity must all match exactly.
    """
    from pilot.reference_scheduler import ReferenceScheduler

    n_nodes = data.draw(st.integers(min_value=1, max_value=4))
    cores = data.draw(st.integers(min_value=2, max_value=8))
    gpus = data.draw(st.integers(min_value=0, max_value=2))
    with Session(seed=0) as sa, Session(seed=0) as sb:
        nodes_a = NodeList.build(n_nodes, cores, gpus, 64.0)
        nodes_b = NodeList.build(n_nodes, cores, gpus, 64.0)
        indexed = AgentScheduler(sa, nodes_a, "pilot.eq")
        reference = ReferenceScheduler(sb, nodes_b, "pilot.eq")
        node_names = [n.name for n in nodes_a]
        pairs = {}          # uid -> (task_a, task_b)
        status = {}         # uid -> queued | held | done
        landed_a, landed_b = [], []   # uids, in landing order
        n_ops = data.draw(st.integers(min_value=1, max_value=35))
        for i in range(n_ops):
            op = data.draw(st.sampled_from(
                ["submit", "submit", "submit", "release", "withdraw",
                 "crash_cycle", "kick"]))
            if op == "submit":
                tags = {}
                if data.draw(st.booleans()):
                    tags["colocate"] = data.draw(st.sampled_from("gh"))
                elif data.draw(st.booleans()):
                    tags["affinity"] = data.draw(st.sampled_from("xy"))
                desc = TaskDescription(
                    executable="x", tags=tags,
                    priority=data.draw(st.integers(0, 2)),
                    ranks=data.draw(st.integers(1, 2)),
                    cores_per_rank=data.draw(st.integers(1, cores + 1)),
                    gpus_per_rank=data.draw(st.integers(0, max(gpus, 1))))
                uid = f"t{i}"
                ta, tb = Task(sa, desc, uid), Task(sb, desc, uid)
                if data.draw(st.booleans()):
                    avoid = set(data.draw(st.lists(
                        st.sampled_from(node_names), max_size=2)))
                    ta.avoid_nodes = set(avoid)
                    tb.avoid_nodes = set(avoid)
                pairs[uid] = (ta, tb)
                try:
                    indexed.schedule(
                        ta, lambda task: landed_a.append(task.uid))
                    refused = False
                except SchedulerError:
                    refused = True
                gb = reference.schedule(tb)
                gb.callbacks.append(
                    lambda event, uid=uid: event.ok and landed_b.append(uid))
                assert refused == (gb.ok is False)
                if refused:
                    gb.defuse()
                    status[uid] = "done"  # infeasible on both
                elif gb.ok:
                    status[uid] = "held"
                else:
                    status[uid] = "queued"
            elif op == "release":
                held = [u for u, s in status.items() if s == "held"]
                if not held:
                    continue
                uid = data.draw(st.sampled_from(sorted(held)))
                ta, tb = pairs[uid]
                status[uid] = "done"
                indexed.release(ta)
                reference.release(tb)
            elif op == "withdraw":
                queued = [u for u, s in status.items() if s == "queued"]
                if not queued:
                    continue
                uid = data.draw(st.sampled_from(sorted(queued)))
                ta, tb = pairs[uid]
                assert indexed.withdraw(ta) == reference.withdraw(tb)
                status[uid] = "done"
            elif op == "crash_cycle":
                idx = data.draw(st.integers(0, n_nodes - 1))
                assert sorted(indexed.held_on_node(idx)) == \
                    sorted(reference.held_on_node(idx))
                nodes_a[idx].mark_down()
                nodes_b[idx].mark_down()
                for uid in indexed.held_on_node(idx):
                    ta, tb = pairs[uid]
                    status[uid] = "done"
                    indexed.release(ta)
                    reference.release(tb)
                nodes_a[idx].mark_up()
                nodes_b[idx].mark_up()
                indexed.kick()
                reference.kick()
            else:
                indexed.kick()
                reference.kick()
            # grants newly fired by this op move queued -> held
            for uid, (ta, _tb) in pairs.items():
                if status.get(uid) == "queued" and ta.slots:
                    status[uid] = "held"
            # -- observational equivalence after every operation ----------
            sa.run()
            sb.run()
            assert landed_a == landed_b
            rows_a = sa.profiler.events(event="schedule_ok")
            rows_b = sb.profiler.events(event="schedule_ok")
            assert [r[1] for r in rows_a] == [r[1] for r in rows_b]
            assert indexed.queue_length == reference.queue_length
            assert sorted(indexed.held_tasks) == sorted(reference.held_tasks)
            for uid, (ta, tb) in pairs.items():
                assert [(s.node_index, s.cores, s.gpus, s.mem_gb)
                        for s in ta.slots] == \
                    [(s.node_index, s.cores, s.gpus, s.mem_gb)
                     for s in tb.slots], uid
            for na, nb in zip(nodes_a, nodes_b):
                assert na.free_cores == nb.free_cores
                assert na.free_gpus == nb.free_gpus
                assert na.free_mem_gb == nb.free_mem_gb


class _ReferenceKernel:
    """The specification the engine's run modes are held to: one heap
    ordered by (time, priority, insertion), no now-queue, no pool,
    cancelled entries skipped without moving the clock."""

    class _Handle:
        cancelled = False

        def cancel(self):
            self.cancelled = True

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = 0

    def call_later(self, delay, fn, arg=None, priority=NORMAL):
        handle = self._Handle()
        heapq.heappush(
            self._heap, (self.now + delay, priority, self._seq, handle, fn, arg))
        self._seq += 1
        return handle

    def run(self):
        while self._heap:
            when, _prio, _seq, handle, fn, arg = heapq.heappop(self._heap)
            if not handle.cancelled:
                self.now = when
                fn(arg)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_run_modes_match_reference_kernel(data):
    """``run()``, ``run(until=t)`` and ``run(until=event)`` are one
    dispatch order, and it is the reference kernel's.

    A random event program (delayed calls, URGENT priorities, zero-delay
    sends fired *from* callbacks, triggered events, cancellations) is
    replayed through every way of driving the engine; the dispatch trace
    -- (time, tag) in firing order -- must agree exactly.
    """
    delay_st = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.5])
    n_ops = data.draw(st.integers(min_value=1, max_value=30))
    program = []
    n_cancellable = 0
    for _ in range(n_ops):
        kind = data.draw(st.sampled_from(
            ["call", "call", "urgent", "chain", "event", "cancel"]))
        if kind == "cancel" and n_cancellable == 0:
            kind = "call"
        if kind in ("call", "urgent"):
            program.append((kind, data.draw(delay_st)))
            n_cancellable += 1
        elif kind == "chain":
            # fires at its delay, then sends 1-3 zero-delay children from
            # inside the callback
            program.append(("chain", data.draw(delay_st),
                            data.draw(st.integers(1, 3))))
            n_cancellable += 1
        elif kind == "event":
            program.append(("event", data.draw(delay_st)))
        else:
            program.append(
                ("cancel", data.draw(st.integers(0, n_cancellable - 1))))
    # some deadlines coincide with event times, some fall between them
    deadlines = sorted(data.draw(st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.75, 2.5, 3.0]), max_size=5)))

    def load(kernel, trace):
        handles = []
        for idx, op in enumerate(program):
            kind = op[0]
            if kind == "call":
                handles.append(kernel.call_later(
                    op[1], lambda _a, i=idx: trace.append((kernel.now, i))))
            elif kind == "urgent":
                handles.append(kernel.call_later(
                    op[1], lambda _a, i=idx: trace.append((kernel.now, i)),
                    priority=URGENT))
            elif kind == "chain":
                def fire(_a, i=idx, children=op[2]):
                    trace.append((kernel.now, i))
                    for j in range(children):
                        kernel.call_later(
                            0.0, lambda _a, i=i, j=j: trace.append(
                                (kernel.now, i, j)))

                handles.append(kernel.call_later(op[1], fire))
            elif kind == "event" and isinstance(kernel, SimulationEngine):
                ev = kernel.event()
                ev.callbacks.append(
                    lambda e, i=idx: trace.append((kernel.now, i)))
                ev._ok = True
                ev._value = None
                kernel.schedule(ev, op[1])
            elif kind == "event":  # the reference has one kind of entry
                kernel.call_later(
                    op[1], lambda _a, i=idx: trace.append((kernel.now, i)))
            else:  # cancel: all scheduling precedes the run, so the handle
                # cannot have fired (and been recycled) yet
                handles[op[1]].cancel()

    def replay(drive, kernel_type=SimulationEngine):
        kernel, trace = kernel_type(), []
        load(kernel, trace)
        drive(kernel, trace)
        return kernel, trace

    _, expected = replay(lambda kernel, _trace: kernel.run(),
                         _ReferenceKernel)

    def by_slices(engine, trace):
        for t in deadlines:
            engine.run(until=t)
            assert engine.now == t
            # everything at or before t has fired, nothing later has
            assert trace == [row for row in expected if row[0] <= t]
        engine.run()

    def by_event(engine, trace):
        stop = engine.timeout(10.0)  # after the last delay
        engine.call_later(20.0, lambda _a: trace.append("late"))
        assert engine.run(until=stop) is None
        assert engine.now == 10.0
        assert trace == expected  # whole program ran, nothing past the stop
        engine.run()
        assert trace.pop() == "late"

    assert replay(lambda engine, _trace: engine.run())[1] == expected
    assert replay(by_slices)[1] == expected
    assert replay(by_event)[1] == expected


# ---------------------------------------------------------------------------
# Data subsystem: the copy record
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_copy_record_matches_the_three_record_reference(data):
    """One copy record == the object store + replica registry + LRU caches.

    Random intern / admit / register-durable / touch / wipe traffic, at
    every location (durable origins on platforms too), replays through
    :class:`repro.data.DataServices` and the three-record reference
    (``tests/data/reference_replicas.py``).  Capacities run from 0 to 300
    and sizes are whole or tenths, so out-of-order removals leave float
    residue that an emptied tier must reset.  After every operation
    ``holds`` agrees for every (location, object), ``holders`` and
    occupancy are equal (occupancy exactly), every admission evicts the
    same objects in the same order, and no empty holder set is kept.  The
    one difference is asserted as such: a wipe loses the same copies but
    is not counted as evictions (the reference counts it).
    """
    from data.reference_replicas import ReferenceDataServices
    from repro.data import DataConfig, DataServices

    capacity = data.draw(st.one_of(
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=0, max_value=3000).map(lambda k: k / 10)))
    sizes = st.one_of(st.integers(min_value=0, max_value=150),
                      st.integers(min_value=0, max_value=1500).map(
                          lambda k: k / 10))
    locations = ["delta", "frontier", "localhost"]
    ops = st.sampled_from(
        ["admit", "admit", "admit", "durable", "touch", "wipe"])
    with Session(seed=0) as session:
        shipped = DataServices(session, DataConfig(
            cache_capacity_bytes=capacity))
        ref = ReferenceDataServices(capacity)
        objects = {}
        wiped, wiped_bytes = 0, 0.0
        for _step in range(data.draw(st.integers(min_value=1, max_value=40))):
            name = data.draw(st.sampled_from("abcdef"))
            if name not in objects:
                size = data.draw(sizes)
                obj = shipped.intern(name, size)
                assert obj == ref.objects.intern(name, size)
                assert shipped.intern(name, size) is obj
                objects[name] = obj
            obj = objects[name]
            location = data.draw(st.sampled_from(locations))
            op = data.draw(ops)
            if op == "admit":
                assert [o.oid for o in shipped.admit(location, obj)] \
                    == [o.oid for o in ref.admit(location, obj)]
            elif op == "durable":
                shipped.register_durable(obj.oid, location)
                ref.register_durable(obj.oid, location)
            elif op == "touch":
                shipped.touch(location, obj.oid)
                ref.touch(location, obj.oid)
            else:
                lost = [o for o in objects.values()
                        if o.oid in ref.cache.entries(location)]
                assert shipped.wipe(location) == ref.wipe(location) \
                    == len(lost)
                wiped += len(lost)
                wiped_bytes += sum(o.size_bytes for o in lost)
            # the wipe is the only way the counters part
            assert shipped.evictions + wiped == ref.cache.evictions
            assert shipped.bytes_evicted + wiped_bytes \
                == pytest.approx(ref.cache.bytes_evicted)
            for where in locations:
                assert shipped.occupancy(where) == ref.cache.occupancy(where)
                assert shipped.occupancy(where) <= capacity
                for o in objects.values():
                    assert shipped.holds(where, o.oid) \
                        == ref.holds(where, o.oid)
            for o in objects.values():
                assert frozenset(shipped.holders(o.oid)) \
                    == ref.replicas.holders(o.oid)
            assert all(shipped._holders.values())


@given(st.data())
def test_replica_registry_matches_actual_holdings(data):
    """Random durable-register/admit traffic keeps the copy record truthful:
    it reports an object at a location iff a durable copy or a warm-tier
    entry actually sits there, and occupancy never exceeds capacity."""
    from repro.data import DataConfig, DataServices

    capacity = float(data.draw(st.integers(min_value=0, max_value=300)))
    with Session(seed=0) as session:
        services = DataServices(session, DataConfig(
            cache_capacity_bytes=capacity))
        platforms = ["delta", "frontier"]
        durable: dict = {}  # (oid, location) -> True
        objects = {}
        for _step in range(data.draw(st.integers(min_value=1, max_value=40))):
            name = data.draw(st.sampled_from("abcdef"))
            if name not in objects:
                objects[name] = services.intern(
                    name, data.draw(st.integers(min_value=0, max_value=150)))
            obj = objects[name]
            location = data.draw(st.sampled_from(platforms + ["localhost"]))
            if data.draw(st.booleans()) and location == "localhost":
                services.register_durable(obj.oid, location)
                durable[(obj.oid, location)] = True
            else:
                services.admit(location, obj)
            # invariants, checked after every operation
            for platform in platforms + ["localhost"]:
                assert services.occupancy(platform) <= capacity
                warm = services._cached.get(platform, {})
                for o in objects.values():
                    held = services.holds(platform, o.oid)
                    actual = (durable.get((o.oid, platform), False)
                              or o.oid in warm)
                    assert held == actual


@settings(max_examples=20, deadline=None)
@given(n_tasks=st.integers(min_value=1, max_value=8),
       n_objects=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=100))
def test_staging_conserves_bytes(n_tasks, n_objects, seed):
    """moved + saved == requested for any task/object mix, and each unique
    (object, platform) pair is moved at most once while caches are warm."""
    from repro.pilot import PilotDescription, PilotManager, TaskManager

    with Session(seed=seed) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        tmgr.add_pilots(pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9)))
        size = 1e8
        tasks = tmgr.submit_tasks([
            TaskDescription(
                executable="x", duration_s=1.0,
                input_staging=[{"source": f"obj-{i % n_objects}",
                                "size_bytes": size}])
            for i in range(n_tasks)])
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)
        dm = tmgr.data_manager
        requested = n_tasks * size
        assert dm.bytes_transferred + dm.bytes_saved == \
            pytest.approx(requested)
        # one platform: each distinct object crosses the WAN exactly once
        assert dm.bytes_transferred == \
            pytest.approx(min(n_objects, n_tasks) * size)


# ---------------------------------------------------------------------------
# Resilience: forced failures leak no resources
# ---------------------------------------------------------------------------

@settings(max_examples=15, deadline=None)
@given(st.data())
def test_forced_failures_leak_no_resources(data):
    """Faults and cancellations at random lifecycle stages leak nothing.

    Tasks with real staging and compute are disrupted at arbitrary times
    (hitting binding, stage-in, queueing, execution and stage-out), with
    and without the retry policy.  Once every task completes, all cores,
    GPUs, scheduler holds, queue entries, link flows and in-flight staging
    registrations must be back to zero -- across crash-kills, cancels and
    recovery-driven re-execution alike.
    """
    from repro.pilot import PilotDescription, PilotManager, TaskManager
    from repro.resilience import (NodeFailure, ResilienceConfig, RetryPolicy,
                                  recovery)

    with_retry = data.draw(st.booleans())
    config = ResilienceConfig(
        retry=RetryPolicy(max_retries=1, backoff_base_s=0.5)
    ) if with_retry else None
    seed = data.draw(st.integers(min_value=0, max_value=50))
    with patch.object(recovery, "BACKOFF_JITTER_S", 0.0), \
            Session(seed=seed, resilience_config=config) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        n_tasks = data.draw(st.integers(min_value=2, max_value=5))
        tasks = tmgr.submit_tasks([
            TaskDescription(
                executable="x", duration_s=20.0, cores_per_rank=8,
                gpus_per_rank=1,
                input_staging=[{"source": f"obj-{i % 2}",
                                "size_bytes": 5e9}],
                output_staging=[{"source": f"out-{i}", "size_bytes": 1e9}])
            for i in range(n_tasks)])
        for task in tasks:
            kind = data.draw(st.sampled_from(
                ["none", "cancel", "node_fault"]))
            if kind == "none":
                continue
            at = data.draw(st.floats(min_value=0.0, max_value=40.0))

            def disrupt(task=task, kind=kind, at=at):
                yield session.engine.timeout(at)
                if kind == "cancel":
                    tmgr.cancel_tasks(task)
                else:
                    tmgr.fail_task(
                        task, NodeFailure("prop-node", pilot.uid))

            session.engine.process(disrupt())
        session.run(until=tmgr.wait_tasks(tasks))
        session.run(until=session.now + 60.0)  # let stragglers fire

        assert all(t.completed.triggered for t in tasks)
        nodes = pilot.nodes
        assert nodes.total_free_cores == 2 * 64
        assert nodes.total_free_gpus == 2 * 4
        scheduler = pilot.agent.scheduler
        assert scheduler.held_tasks == []
        assert scheduler.queue_length == 0
        assert sum(tmgr._live_bound.values()) == 0
        for link in session.data.transfers.links().values():
            assert link.active_flows == 0
        assert session.data.inflight == {}


# ---------------------------------------------------------------------------
# Services end with their pilot
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.data())
def test_services_end_with_their_pilot_and_hold_nothing(data):
    """Random local services (noop, llama or an unbuildable llama-0b, with
    and without GPUs, some with a startup timeout that can land in any
    bootstrap step, one maybe started late -- after the pilot's end),
    remote ones and a client, on a pilot that is cancelled, runs out of
    walltime or is preempted at a random time, with random orderly stops
    before and after, with and without resilience.  Once the pilot has ended, no
    service aboard is READY and the registry lists exactly the running
    instances; after every service stopped, ``quiesce()`` and ``run()``,
    no final service holds a slot, every ``stopped`` fired once and the
    event queue is empty."""
    from repro import (PilotDescription, PilotManager, RequestTimeout,
                       ResilienceConfig, ServiceClient, ServiceDescription,
                       ServiceManager)
    from repro.hpc.batch import JobState

    config = ResilienceConfig(heartbeat_interval_s=2.0, retry=None) \
        if data.draw(st.booleans()) else None
    end = data.draw(st.sampled_from(["cancel", "walltime", "preempt"]))
    end_at = data.draw(st.floats(min_value=0.0, max_value=40.0))
    seed = data.draw(st.integers(min_value=0, max_value=50))
    with Session(seed=seed, resilience_config=config) as session:
        engine = session.engine
        pmgr = PilotManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource="delta", gpus=8,
            runtime_s=end_at + 1.0 if end == "walltime" else 1e6))
        local = smgr.start_services([ServiceDescription(
            model=data.draw(st.sampled_from(["noop", "llama-8b",
                                             "llama-0b"])),
            gpus_per_rank=data.draw(st.sampled_from([0, 1, 4])),
            heartbeat_interval_s=2.0,
            startup_timeout_s=data.draw(st.sampled_from(
                [1e4, data.draw(st.floats(min_value=0.5, max_value=30.0))])))
            for _ in range(data.draw(st.integers(min_value=1, max_value=5)))],
            pilot)
        remote = [smgr.start_remote(ServiceDescription(model="noop"), "r3")
                  for _ in range(data.draw(st.integers(0, 1)))]
        handles = local + remote
        fired = {}

        def watch(handle):
            fired[handle.uid] = []
            handle.stopped.callbacks.append(fired[handle.uid].append)

        for handle in handles:
            watch(handle)
            if data.draw(st.booleans()):
                engine.call_later(
                    data.draw(st.floats(min_value=0.0, max_value=50.0)),
                    lambda _, h=handle: smgr.stop_services(h))

        def start_late(_):
            (handle,) = smgr.start_services(ServiceDescription(
                model="noop", gpus_per_rank=1, heartbeat_interval_s=2.0),
                pilot)
            watch(handle)
            local.append(handle)

        if data.draw(st.booleans()):
            engine.call_later(
                data.draw(st.floats(min_value=0.0, max_value=60.0)),
                start_late)
        client = ServiceClient(session, platform="delta", timeout_s=5.0,
                               max_retries=0)

        def ask(handle):
            try:
                yield handle.ready
            except Exception:  # it never came up
                return
            for _ in range(3):
                try:
                    yield from client.infer(handle.address, "p",
                                            params={"max_tokens": 32})
                except RequestTimeout:
                    return

        engine.process(ask(local[0]))

        def pilot_end(_):
            if end == "cancel":
                pmgr.cancel_pilots(pilot)
            elif end == "preempt" \
                    and pilot.batch_job.state == JobState.RUNNING:
                session.batch_system("delta").fail(pilot.batch_job)

        engine.call_later(end_at, pilot_end)
        session.run(until=110.0)
        assert pilot.state in ("CANCELED", "FAILED")
        handles = local + remote
        assert not [h for h in local if h.is_ready]
        running = {h.uid for h in handles
                   if h.instance is not None and h.instance.running}
        listed = {info.uid for info in smgr.registry.list_services()}
        assert listed == running
        smgr.stop_services(handles)
        session.run(until=smgr.wait_stopped(handles))
        session.quiesce()
        session.run()
        assert engine.peek() == float("inf")
        assert all(len(fired[h.uid]) == 1 for h in handles)
        assert pilot.agent is None or pilot.agent.scheduler.held_tasks == []
        assert smgr.registry.list_services() == []
        assert not any(smgr._loading.values())  # no model load left counted


# ---------------------------------------------------------------------------
# State machines
# ---------------------------------------------------------------------------

ALL_TASK_STATES = [
    TaskState.NEW, TaskState.TMGR_SCHEDULING, TaskState.TMGR_STAGING_INPUT,
    TaskState.AGENT_SCHEDULING, TaskState.AGENT_EXECUTING,
    TaskState.TMGR_STAGING_OUTPUT, TaskState.RESCHEDULING, TaskState.DONE,
    TaskState.FAILED, TaskState.CANCELED]


@given(start=st.sampled_from(ALL_TASK_STATES),
       target=st.sampled_from(ALL_TASK_STATES))
def test_task_model_final_states_absorb(start, target):
    if start in TaskState.FINAL:
        if (start, target) == (TaskState.FAILED, TaskState.RESCHEDULING):
            TASK_MODEL.check(start, target)  # the declared recovery edge
        else:
            with pytest.raises(StateError):
                TASK_MODEL.check(start, target)
    elif target in (TaskState.FAILED, TaskState.CANCELED):
        TASK_MODEL.check(start, target)  # always legal from live states


@given(path=st.permutations([
    ServiceState.LAUNCHING, ServiceState.INITIALIZING,
    ServiceState.PUBLISHING, ServiceState.READY]))
def test_service_bootstrap_order_is_unique(path):
    """Only the canonical launch->init->publish->ready order is legal."""
    canonical = [ServiceState.LAUNCHING, ServiceState.INITIALIZING,
                 ServiceState.PUBLISHING, ServiceState.READY]
    state = ServiceState.DEFINED
    legal = True
    for nxt in path:
        try:
            SERVICE_MODEL.check(state, nxt)
            state = nxt
        except StateError:
            legal = False
            break
    assert legal == (list(path) == canonical)


# ---------------------------------------------------------------------------
# RNG hub
# ---------------------------------------------------------------------------

@given(seed=st.integers(min_value=0, max_value=2**31),
       names=st.lists(st.text(min_size=1, max_size=12), min_size=2,
                      max_size=6, unique=True))
def test_rng_streams_reproducible_and_name_isolated(seed, names):
    hub1, hub2 = RngHub(seed), RngHub(seed)
    draws1 = {n: hub1.stream(n).random(4) for n in names}
    # hub2 draws in reverse order: must not matter
    draws2 = {n: hub2.stream(n).random(4) for n in reversed(names)}
    for name in names:
        assert np.array_equal(draws1[name], draws2[name])


_LOCS = st.sampled_from([0.0, -0.0, -3.5, 0.063, 0.47, 2.0, 1e300, -1e-300]) \
    | st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_SCALES = st.sampled_from([0.0, 1e-300, 1e-12, 0.014, 0.3, 1.0, 1e200]) \
    | st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(seed=st.integers(min_value=0, max_value=2**31),
       name=st.text(min_size=1, max_size=8),
       steps=st.lists(st.tuples(
           _LOCS, _SCALES,
           st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 500])),
           min_size=1, max_size=12))
@example(seed=0, name="fabric",            # crosses 64, 192, 448, 960, 1984
         steps=[(0.063, 0.014, 500), (-3.5, 1e-300, 500),
                (1e300, 1e200, 500), (0.0, 1.0, 500)])
def test_normal_only_stream_is_bit_identical_to_scalar_draws(seed, name,
                                                            steps):
    """Block-drawn ``loc + scale * z`` equals ``Generator.normal`` bit for
    bit, across block boundaries."""
    blocked = RngHub(seed).normals(name)
    scalar = RngHub(seed).stream(name)
    for loc, scale, repeat in steps:
        for _ in range(repeat):
            got, want = blocked.normal(loc, scale), scalar.normal(loc, scale)
            assert type(got) is type(want) is float
            assert repr(got) == repr(want)         # -0.0 and nan included


@given(name=st.text(min_size=1, max_size=8), normal_first=st.booleans())
def test_a_stream_name_is_normal_only_or_plain_never_both(name,
                                                          normal_first):
    hub = RngHub(3)
    if normal_first:
        hub.normals(name).normal(0.0, 1.0)
        assert hub.normals(name) is hub.normals(name)
        with pytest.raises(ValueError):
            hub.stream(name)
    else:
        hub.stream(name).random()
        with pytest.raises(ValueError):
            hub.normals(name)


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

@given(p=st.lists(st.floats(min_value=0.0, max_value=1.0,
                            allow_nan=False), min_size=1, max_size=100))
def test_bh_properties(p):
    q = benjamini_hochberg(p)
    p_arr = np.asarray(p)
    assert (q >= p_arr - 1e-12).all()          # adjustment never lowers
    assert (q <= 1.0 + 1e-12).all()            # bounded
    order = np.argsort(p_arr)
    assert (np.diff(q[order]) >= -1e-12).all()  # order-preserving


@given(values=st.lists(st.floats(min_value=-1e6, max_value=1e6,
                                 allow_nan=False), min_size=1, max_size=200))
def test_dist_stats_consistency(values):
    stats = dist_stats(values)
    arr = np.asarray(values)
    assert stats.n == arr.size
    assert stats.min <= stats.p50 <= stats.max
    assert stats.min <= stats.mean <= stats.max
    assert stats.p50 <= stats.p95 + 1e-9
    assert stats.std >= 0


@given(st.data())
def test_rt_decomposition_adds_up(data):
    """communication + service + inference == RT for any reply metadata."""
    from repro.comm.message import Address, Message
    from repro.core.client import ServiceClient

    t0 = data.draw(st.floats(min_value=0, max_value=1e3, allow_nan=False))
    leg1 = data.draw(st.floats(min_value=1e-6, max_value=1.0))
    queue = data.draw(st.floats(min_value=0, max_value=10.0))
    parse = data.draw(st.floats(min_value=0, max_value=0.1))
    infer = data.draw(st.floats(min_value=0, max_value=100.0))
    serialize = data.draw(st.floats(min_value=0, max_value=0.1))
    leg2 = data.draw(st.floats(min_value=1e-6, max_value=1.0))

    received = t0 + leg1
    dequeued = received + queue
    infer_start = dequeued + parse
    infer_stop = infer_start + infer
    replied = infer_stop + serialize
    t1 = replied + leg2

    reply = Message(kind="reply", payload={"ok": True}, meta={
        "received_at": received, "dequeued_at": dequeued,
        "infer_start_at": infer_start, "infer_stop_at": infer_stop,
        "replied_at": replied, "service_uid": "svc"})
    retries = data.draw(st.integers(min_value=0, max_value=6))
    client = ServiceClient.__new__(ServiceClient)  # bypass bus wiring
    client.uid = "client.prop"
    result = client._decompose(reply, t0, t1, retries)
    assert (result.submitted_at, result.completed_at, result.retries) \
        == (t0, t1, retries)
    assert result.response_time == pytest.approx(
        result.communication + result.service_time + result.inference_time)
    assert result.communication == pytest.approx(leg1 + leg2)
    assert result.inference_time == pytest.approx(infer)
    assert result.queue_time == pytest.approx(queue)


@given(st.data())
def test_result_log_reads_back_what_decompose_built(data):
    """A result kept in a client's columnar log reads back bit for bit:
    the response time and communication it recomputes, the bool and the
    retry count it stores as doubles, field types included."""
    from repro.comm.message import Message
    from repro.core.client import ResultLog, ServiceClient

    times = st.floats(min_value=0, max_value=1e6, allow_nan=False)
    stamps = sorted(data.draw(st.lists(times, min_size=7, max_size=7)))
    t0, received, dequeued, infer_start, infer_stop, replied, t1 = stamps
    meta = {"received_at": received, "dequeued_at": dequeued,
            "infer_start_at": infer_start, "infer_stop_at": infer_stop,
            "replied_at": replied, "service_uid": "svc"}
    for key in data.draw(st.sets(st.sampled_from(sorted(meta)))):
        del meta[key]                   # a reply that lacks a stamp
    reply = Message(kind="reply", meta=meta, payload=data.draw(
        st.sampled_from([None, {"ok": True}, {"ok": False, "busy": True}])))
    client = ServiceClient.__new__(ServiceClient)  # bypass bus wiring
    client.uid = "client.prop"
    log = ResultLog(client.uid)
    results = [client._decompose(reply, t0, t1, data.draw(
        st.integers(min_value=0, max_value=64))) for _ in range(2)]
    for result in results:
        log.append(result)
    for row, result in zip(log, results):
        assert repr(row) == repr(result)
        assert [type(v) for v in vars_of(row)] \
            == [type(v) for v in vars_of(result)]
    assert log[-1] == results[-1] and log[:] == results


def vars_of(result):
    return [getattr(result, name) for name in result.__slots__]


# ---------------------------------------------------------------------------
# Streaming campaign engine (workflows.campaign)
# ---------------------------------------------------------------------------

def _campaign_env(seed=11):
    """Session + pilot + TaskManager for one property example."""
    from repro.pilot import PilotDescription, PilotManager, TaskManager
    session = Session(seed=seed)
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(
        PilotDescription(resource="delta", nodes=2, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    return session, tmgr


@st.composite
def _dag_specs(draw):
    """A random DAG: nodes 0..n-1, edges only i -> j with i < j (acyclic
    by construction), one modeled-duration task per node."""
    n = draw(st.integers(min_value=2, max_value=6))
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((i, j))
    durations = draw(st.lists(
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        min_size=n, max_size=n))
    return n, edges, durations


def _dag_graph(n, edges, durations):
    """Build the campaign graph; collects a value that is a deterministic
    function of the DAG shape, and each node's task uid for timestamp
    checks."""
    from repro.workflows import CampaignGraph, TaskNode

    nodes = []
    for i in range(n):
        deps = tuple(f"n{u}" for (u, v) in edges if v == i)

        def build(ctx, i=i):
            return [TaskDescription(name=f"dag-{i}", executable="sim",
                                    duration_s=float(durations[i]))]

        def collect(ctx, tasks, i=i, deps=deps):
            ctx[f"val{i}"] = 1 + sum(ctx[f"val{d[1:]}"] for d in deps)
            ctx.setdefault("uids", {})[i] = tasks[0].uid

        nodes.append(TaskNode(name=f"n{i}", deps=deps, build=build,
                              collect=collect))
    return CampaignGraph(name="prop-dag", nodes=nodes)


@given(spec=_dag_specs())
@settings(max_examples=20, deadline=None)
def test_campaign_respects_every_dependency_edge(spec):
    """No task is even *submitted* before all of its node's inputs hit
    their final state, and the streamed final context equals topological
    barrier execution of the same graph."""
    n, edges, durations = spec

    # streaming execution on the campaign engine
    session, tmgr = _campaign_env()
    with session:
        from repro.workflows import CampaignRunner
        runner = CampaignRunner(session, tmgr)
        graph = _dag_graph(n, edges, durations)
        proc = session.engine.process(runner.run_campaign(graph))
        streamed = session.run(until=proc)
        prof = session.profiler
        for u, v in edges:
            submitted = prof.timestamp(streamed["uids"][v],
                                       "state:TMGR_SCHEDULING")
            upstream_done = prof.timestamp(streamed["uids"][u], "state:DONE")
            assert submitted >= upstream_done, (
                f"edge {u}->{v} violated: task submitted at {submitted} "
                f"before input completed at {upstream_done}")

    # reference: barrier execution in topological order (no campaign code)
    session, tmgr = _campaign_env()
    with session:
        graph = _dag_graph(n, edges, durations)
        context = {}

        def barrier():
            for name in graph.topological_order():
                node = graph.nodes[name]
                tasks = tmgr.submit_tasks(node.build(context))
                yield tmgr.wait_tasks(tasks)
                node.collect(context, tasks)
            return context

        barriered = session.run(until=session.engine.process(barrier()))

    for i in range(n):
        assert streamed[f"val{i}"] == barriered[f"val{i}"]


@st.composite
def _bag_dag_specs(draw):
    """A random DAG of build nodes (edges i -> j with i < j), each with a
    bag of zero to three modeled-duration tasks."""
    n = draw(st.integers(min_value=1, max_value=7))
    edges = [(i, j) for j in range(1, n) for i in range(j)
             if draw(st.booleans())]
    bags = [draw(st.lists(st.floats(min_value=0.0, max_value=8.0,
                                    allow_nan=False), max_size=3))
            for _ in range(n)]
    return n, edges, bags


@given(spec=_bag_dag_specs())
@settings(max_examples=40, deadline=None)
def test_barriered_graph_submits_the_streaming_tasks_level_by_level(spec):
    """``graph.barriered(stages)`` runs the streaming graph's work: each
    level's tasks, in topological order, go out in one submit call (a
    level with no tasks submits nothing), and no task of a level is
    submitted before every task of the levels above it completed."""
    from repro.workflows import CampaignGraph, CampaignRunner, TaskNode

    n, edges, bags = spec
    deps = [tuple(f"n{u}" for u, v in edges if v == i) for i in range(n)]
    level = []
    for i in range(n):  # the longest chain of inputs above each node
        level.append(max((level[u] + 1 for u, v in edges if v == i),
                         default=0))
    stages = [f"s{k}" for k in range(max(level) + 1)]

    streaming = CampaignGraph(name="bags", nodes=[
        TaskNode(name=f"n{i}", deps=deps[i],
                 build=lambda ctx, i=i: [
                     TaskDescription(name=f"n{i}-{k}", executable="sim",
                                     duration_s=duration)
                     for k, duration in enumerate(bags[i])])
        for i in range(n)])

    def run(graph):
        """Names of every submit call; per node key, its task names; per
        task name, its (submitted, done) times."""
        session, tmgr = _campaign_env()
        with session:
            calls = []
            submit = tmgr.submit_tasks

            def recording_submit(descriptions, *args, **kwargs):
                calls.append([d.name for d in descriptions])
                return submit(descriptions, *args, **kwargs)

            tmgr.submit_tasks = recording_submit
            runner = CampaignRunner(session, tmgr)
            session.run(until=session.engine.process(
                runner.run_campaign(graph)))
            prof = session.profiler
            names = {key: [t.description.name for t in tasks]
                     for key, tasks in runner.node_tasks.items()}
            times = {task.description.name: (
                prof.timestamp(task.uid, "state:TMGR_SCHEDULING"),
                prof.timestamp(task.uid, "state:DONE"))
                for task in runner.tasks}
            return calls, names, times

    _, streamed, _ = run(streaming)
    order = streaming.topological_order()
    expected = [sum((streamed.get(f"bags/{node}", []) for node in order
                     if level[int(node[1:])] == k), [])
                for k in range(len(stages))]
    calls, barriered, times = run(streaming.barriered(stages))
    assert calls == [names for names in expected if names]
    assert [barriered.get(f"bags/{stage}", []) for stage in stages] == \
        expected

    for k in range(1, len(stages)):
        above = [times[name][1] for names in expected[:k] for name in names]
        for name in expected[k]:
            assert times[name][0] >= max(above, default=0.0), name


@given(capacity=st.integers(min_value=1, max_value=8),
       n_tasks=st.integers(min_value=1, max_value=20),
       chunk=st.integers(min_value=1, max_value=6))
@settings(max_examples=25, deadline=None)
def test_submission_window_never_exceeds_capacity(capacity, n_tasks, chunk):
    """Windowed submission: every task completes, the in-flight high-water
    mark respects the window, and slots drain back to zero."""
    from repro.pilot.task_manager import SubmissionWindow

    session, tmgr = _campaign_env()
    with session:
        window = SubmissionWindow(session.engine, capacity)
        tasks = tmgr.submit_tasks(
            [TaskDescription(name=f"w{i}", executable="sim",
                             duration_s=float(1 + i % 3))
             for i in range(n_tasks)],
            chunk_size=chunk, window=window)
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == "DONE" for t in tasks)
        assert window.peak <= capacity
        assert window.in_flight == 0


@given(values=st.lists(st.floats(min_value=0.0, max_value=20.0,
                                 allow_nan=False), max_size=60),
       q=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_histogram_quantile_matches_rank_oracle(values, q):
    """Bucketed quantile == the exact rank statistic's bucket bound.

    The q-quantile of n observations is the max(1, ceil(q*n))-th smallest
    value; the histogram must report the upper bound of the bucket that
    value falls in (last finite bound for overflow), and 0.0 when empty.
    """
    import bisect
    import math

    from repro.observability import Histogram

    buckets = (1.0, 2.0, 4.0, 8.0, 16.0)
    h = Histogram("lat", (), buckets=buckets)
    for v in values:
        h.observe(v)

    if not values:
        assert h.quantile(q) == 0.0
        return
    rank = max(1, math.ceil(q * len(values) - 1e-9))
    exact = sorted(values)[rank - 1]
    i = bisect.bisect_left(buckets, exact)
    assert h.quantile(q) == buckets[min(i, len(buckets) - 1)]


# ---------------------------------------------------------------------------
# Tracing plane: the task log and the profile replay into the eager spans
# ---------------------------------------------------------------------------

_TRACE_OPS = ("submit", "submit", "step", "step", "step", "fail", "retry",
              "cancel", "span", "end", "attr", "root", "query", "tick",
              "profile")


@settings(max_examples=150, deadline=None)
@example(ops=[("submit", 1, 0), ("fail", 0, 0), ("retry", 0, 0),
              ("step", 0, 1), ("query", 0, 0)],
         level="full")  # attempt 2 on a retry
@example(ops=[("submit", 2, 0), ("step", 0, 0), ("span", 1, 0),
              ("query", 0, 0), ("step", 0, 1), ("span", 0, 0),
              ("tick", 1, 0), ("cancel", 0, 0)],
         level="off")  # explicit spans between
@example(ops=[("submit", 1, 0), ("step", 0, 0), ("query", 0, 0),
              ("step", 0, 0), ("profile", 0, 0), ("query", 0, 0)],
         level="durations")  # the profile folds what a query already read
@given(ops=st.lists(st.tuples(st.sampled_from(_TRACE_OPS),
                              st.integers(min_value=0, max_value=63),
                              st.integers(min_value=0, max_value=63)),
                    max_size=80),
       level=st.sampled_from(["full", "durations", "off"]))
def test_tracer_replay_matches_eager_reference(ops, level):
    """Any interleaving of task lifecycles, explicit spans, span queries
    and profile reads yields the spans the eager tracer would have built,
    at every profile level.

    The session's tracer is driven through the telemetry facade exactly as
    a TaskManager drives it and reads the task phases off the profile; the
    reference (the eager tracer this repo once shipped,
    ``tests/observability/reference_tracer.py``) hangs on the same tasks'
    transitions.  Ids, order, parents, stamps and attrs must agree at every
    mid-run query, and so must the attribution built on them.
    """
    from observability.reference_tracer import ReferenceTracer

    from repro.observability import CampaignAttribution, ObservabilityConfig

    def same_spans():
        assert ([s.as_dict() for s in tracer.spans]
                == [s.as_dict() for s in ref.spans])
        assert len(tracer) == len(ref.spans)

    with Session(seed=0, profile=level, observability=ObservabilityConfig(
            monitors=False)) as session:
        obs = session.observability
        tracer, ref = obs.tracer, ReferenceTracer(session)
        tasks = []      # every task, tracked or not
        explicit = []   # (span of tracer, span of ref) opened by hand
        desc = TaskDescription(executable="x")

        def parent_pair(pick):
            """An explicit span or a live task root, one per tracer."""
            if pick % 3 == 0 and tasks:
                uid = tasks[pick % len(tasks)].uid
                return tracer.task_root(uid), ref.task_root(uid)
            if explicit:
                return explicit[pick % len(explicit)]
            return None, None

        for op, a, b in ops:
            task = tasks[a % len(tasks)] if tasks else None
            if op == "submit":
                task = Task(session, desc, f"task.{len(tasks):06d}")
                task.on_state(ref.on_task_state)
                tasks.append(task)
                if a % 8 == 0:
                    continue  # never submitted to an instrumented manager
                mine, theirs = parent_pair(b) if a % 4 else (None, None)
                for trc, parent, submitted in (
                        (tracer, mine, obs.task_submitted),
                        (ref, theirs, ref.task_submitted)):
                    if a % 2:
                        task.trace_parent = parent
                    else:
                        trc.context_parent = parent
                    submitted(task)
                    trc.context_parent = None
            elif op == "step" and task and not task.is_final:
                targets = TaskState.TRANSITIONS[task.state]
                target = targets[b % len(targets)]
                if target == TaskState.DONE:
                    task.finish(target)
                else:
                    task.advance(target)
            elif op == "fail" and task and not task.is_final:
                task.advance(TaskState.FAILED)  # not completed: may retry
            elif (op == "retry" and task and task.state == TaskState.FAILED
                  and not task.completed.triggered):
                task.advance(TaskState.RESCHEDULING)
                task.prepare_restart()
                task.advance(TaskState.TMGR_SCHEDULING)
            elif op == "cancel" and task and not task.completed.triggered:
                if task.is_final:
                    task.seal()
                else:
                    task.finish(TaskState.CANCELED)
            elif op == "span":
                mine, theirs = parent_pair(b) if a % 2 else (None, None)
                attrs = {"a": a} if a % 3 else None
                explicit.append(
                    (tracer.start_span(f"s{a}", "test", parent=mine,
                                       attrs=attrs and dict(attrs)),
                     ref.start_span(f"s{a}", "test", parent=theirs,
                                    attrs=attrs and dict(attrs))))
            elif op == "end" and explicit:
                mine, theirs = explicit[a % len(explicit)]
                tracer.end_span(mine)
                ref.end_span(theirs)
            elif op == "attr" and explicit:
                for span in explicit[a % len(explicit)]:
                    span.set_attr("k", b)
            elif op == "root" and task:
                mine, theirs = (tracer.task_root(task.uid),
                                ref.task_root(task.uid))
                assert (mine and mine.as_dict()) == \
                    (theirs and theirs.as_dict())
            elif op == "query":
                same_spans()
            elif op == "profile":  # its own reader folds the log
                assert len(session.profiler) == (
                    session.profiler.recorded if level == "full" else 0)
            elif op == "tick":
                session.run(until=session.now + (a % 4) * 0.5)

        same_spans()
        for task in tasks:  # completion of whatever is still open
            if not task.completed.triggered:
                if task.is_final:
                    task.seal()
                else:
                    task.finish(TaskState.CANCELED)
        session.run(until=session.now + 1.0)
        same_spans()
        assert all(s.end is not None for s in tracer.find(category="task"))
        mine = CampaignAttribution.from_spans(tracer.spans)
        theirs = CampaignAttribution.from_spans(ref.spans)
        assert mine.report() == theirs.report()
        assert mine.phase_totals() == theirs.phase_totals()


# ---------------------------------------------------------------------------
# Monitors: the sorted straggler window flags what the sorting one flagged
# ---------------------------------------------------------------------------

#: runtimes that tie often, plus a slow tail the median must flag
_RUNTIMES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0, 3.0, 12.0]),
                      st.floats(min_value=0.0, max_value=50.0,
                                allow_nan=False),
                      st.none())


@settings(max_examples=200, deadline=None)
@example(stream=[(0, 1.0)] * 6 + [(0, 10.0), (1, 9.0)] + [(0, 2.0)] * 9
         + [(0, 30.0)], window=8, min_samples=5, k=3.0)
@given(stream=st.lists(st.tuples(st.integers(min_value=0, max_value=2),
                                 _RUNTIMES), max_size=150),
       window=st.integers(min_value=1, max_value=12),
       min_samples=st.integers(min_value=1, max_value=8),
       k=st.one_of(st.sampled_from([1.5, 2.0, 3.0]),
                   st.floats(min_value=0.5, max_value=6.0)))
def test_sorted_straggler_window_matches_the_sorting_reference(
        stream, window, min_samples, k):
    """Per shape, a window kept sorted by bisection gives the median the
    sorting detector took: same anomalies, ``median_s`` and ``ratio`` to
    the bit, through ties, evictions and unfinished tasks."""
    from types import SimpleNamespace

    from observability.reference_monitor import ReferenceStragglerDetector

    from repro.observability import MonitorHub, monitor

    ref = ReferenceStragglerDetector(window, min_samples, k)
    with patch.multiple(monitor, STRAGGLER_WINDOW=window,
                        STRAGGLER_MIN_SAMPLES=min_samples, STRAGGLER_K=k):
        hub = MonitorHub()
        for i, (shape, runtime) in enumerate(stream):
            task = SimpleNamespace(uid=f"t{i}", runtime_s=runtime,
                                   n_cores=1 + shape, n_gpus=0,
                                   attempts=1 + i % 3,
                                   description=SimpleNamespace(ranks=1))
            hub.observe_exec(task, float(i))
            ref.observe_exec(task, float(i))
            assert len(hub.events) == len(ref.events)
    assert hub.events == ref.events
    assert ([(e.details["median_s"], e.details["ratio"]) for e in hub.events]
            == [(e.details["median_s"], e.details["ratio"])
                for e in ref.events])


# ---------------------------------------------------------------------------
# Profiler: the flat log derives what the eager profiler kept
# ---------------------------------------------------------------------------

_PROFILE_UIDS = ("t0", "t1", "t2")
_PROFILE_EVENTS = ("a", "b", "c")
_PROFILE_OPS = ("record",) * 8 + (
    "events", "timestamp", "duration", "durations", "uids_with_event",
    "counter", "clear", "reload", "export")


@pytest.mark.parametrize("level", ["full", "durations", "off"])
@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(_PROFILE_OPS),
                              st.integers(min_value=0, max_value=63),
                              st.integers(min_value=0, max_value=63)),
                    min_size=15, max_size=80))
def test_profiler_log_matches_eager_reference(tmp_path_factory, level, ops):
    """Any interleaving of records, readers, ``clear`` and file round
    trips answers as the eager profiler would, in every level.

    The reference (the profiler this repo shipped until PR 21,
    ``tests/pilot/reference_profiler.py``) builds its rows and stamps
    inside ``record``; the shipped one appends scalars and catches up when
    a reader arrives.  Records repeat ``(uid, event)`` pairs and carry int
    and ``numpy.float64`` times; a ``counter`` op reads *one* counter cold,
    so each is exact without another read having caught up for it.
    """
    from pilot.reference_profiler import ReferenceProfiler

    from repro.pilot.profiler import Profiler

    tmp = tmp_path_factory.mktemp("profile")
    paths = [str(tmp / "mine.jsonl"), str(tmp / "theirs.jsonl")]
    pair = [Profiler(level=level), ReferenceProfiler(level=level)]

    def same(read):
        mine, theirs = (read(p) for p in pair)
        assert mine == theirs
        return mine

    def written():
        """Export both: the bytes must agree."""
        assert pair[0].to_jsonl(paths[0]) == pair[1].to_jsonl(paths[1])
        with open(paths[0], "rb") as mine, open(paths[1], "rb") as theirs:
            assert mine.read() == theirs.read()
        return [type(p).from_jsonl(path) for p, path in zip(pair, paths)]

    def everything():
        for read in ("dropped", "recorded", "level"):
            same(lambda p: getattr(p, read))
        same(len)
        rows = same(lambda p: p.events())
        assert all(type(row.time) is float for row in rows)
        for uid in _PROFILE_UIDS:
            same(lambda p: p.events(uid=uid))
            for event in _PROFILE_EVENTS:
                same(lambda p: p.events(uid=uid, event=event))
                stamp = same(lambda p: p.timestamp(uid, event))
                assert stamp is None or type(stamp) is float
        for event in _PROFILE_EVENTS:
            same(lambda p: p.uids_with_event(event))

    for op, a, b in ops:
        uid = _PROFILE_UIDS[a % 3]
        event, other = _PROFILE_EVENTS[b % 3], _PROFILE_EVENTS[b // 3 % 3]
        if op == "record":
            t = np.float64(a) / 4 if b % 2 else a
            for p in pair:
                p.record(t, uid, event, f"c{b % 5}")
        elif op == "events":
            same(lambda p: p.events(uid=uid if a % 2 else None,
                                    event=event if b % 2 else None))
        elif op == "timestamp":
            same(lambda p: p.timestamp(uid, event))
        elif op == "duration":
            same(lambda p: p.duration(uid, event, other))
        elif op == "durations":
            same(lambda p: p.durations(["t2", "t0", "ghost", "t1"], event,
                                       other).tolist())
        elif op == "uids_with_event":
            same(lambda p: p.uids_with_event(event))
        elif op == "counter":
            same((lambda p: p.dropped, len, lambda p: p.recorded)[a % 3])
        elif op == "clear":
            for p in pair:
                p.clear()
        elif op == "export":
            written()  # recording goes on afterwards
        elif op == "reload":
            pair = written()
    everything()
    pair = written()
    everything()


# ---------------------------------------------------------------------------
# Campaign / data path as records: same outcome, row for row, as the
# process-per-node / per-submit / per-directive drivers (the reference)
# ---------------------------------------------------------------------------

_NODE_KINDS = ("build", "build", "build", "build_empty", "build_raises",
               "collect_raises", "run_wait", "run_submit", "run_timeout",
               "run_raises", "run_noop")


@st.composite
def _campaign_scenarios(draw):
    """1-3 graphs of 1-5 nodes (edges only i -> j, i < j), as plain data."""
    # The other same-timestamp order meant to differ: a stage-in whose every
    # directive is warm used to take five kernel hops (two child processes,
    # their exits, the AllOf) and now takes none, so a warm-staged task
    # reaches its agent inside the entry that started it instead of being
    # overtaken by an unstaged task started later in the same instant.  A
    # scenario therefore draws either unstaged tasks or tasks staging only
    # the shared dataset, never both (a private input is always cold: its
    # task moves on at a timestamp of its own either way).
    inputs = draw(st.sampled_from([["none", "none", "private", "both"],
                                   ["shared", "shared", "private", "both"]]))
    graphs, orders = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        nodes = []
        for j in range(draw(st.integers(min_value=1, max_value=5))):
            n_tasks = draw(st.integers(min_value=1, max_value=3))
            nodes.append({
                "deps": [i for i in range(j) if draw(st.booleans())],
                "kind": draw(st.sampled_from(_NODE_KINDS)),
                "durations": draw(st.lists(
                    st.sampled_from([0.0, 1.0, 5.0, 30.0]),
                    min_size=n_tasks, max_size=n_tasks)),
                "failing": draw(st.lists(
                    st.sampled_from([False, False, False, True]),
                    min_size=n_tasks, max_size=n_tasks)),
                "tolerance": draw(st.sampled_from([0.0, 0.5, 1.0])),
                "inputs": draw(st.sampled_from(inputs)),
                "output": draw(st.booleans()),
                # never 0.0: a zero-delay timeout is one kernel hop on both
                # sides, a settlement releasing a dependent two hops in the
                # reference and one here -- racing the two in one instant
                # only swaps the order two ready nodes submit in.  Nor a
                # value the drawn interrupt / cancel times shrink onto.
                "wait_s": draw(st.sampled_from([2.3, 7.7])),
            })
        graphs.append(nodes)
        # the order the nodes are handed to CampaignGraph in: siblings are
        # released in *topological* order, whatever the insertion order
        orders.append(draw(st.permutations(range(len(nodes)))))
    window = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=8)))
    return {
        "graphs": graphs,
        "orders": orders,
        "seed": draw(st.integers(min_value=0, max_value=5)),
        "pilots": draw(st.integers(min_value=1, max_value=2)),
        "window": window,
        "interrupt_at": draw(st.one_of(st.none(), st.floats(
            min_value=2.0, max_value=60.0, allow_nan=False))),
        # (when, which): cancel one of the tasks submitted by then -- one,
        # not a burst: simultaneous failures of a build node (settled in
        # the completion entry) and of a custom node (resumed one hop
        # later) would only swap which of them is "the first failure"
        "cancel": draw(st.one_of(st.none(), st.tuples(
            st.floats(min_value=2.0, max_value=40.0, allow_nan=False),
            st.integers(min_value=0, max_value=11)))),
    }


def _scenario_boom():
    raise RuntimeError("task payload failed")


def _scenario_graphs(spec):
    """The campaign graphs of *spec*; every node notes what it saw."""
    from repro.workflows import CampaignGraph, TaskNode

    def descriptions(g, j, node):
        out = []
        for k, (duration, failing) in enumerate(zip(node["durations"],
                                                    node["failing"])):
            staging = []
            if node["inputs"] in ("shared", "both"):
                staging.append({"source": "dataset", "size_bytes": 3e9})
            if node["inputs"] in ("private", "both"):
                staging.append({"source": f"in-{g}-{j}-{k}",
                                "size_bytes": 1e9})
            out.append(TaskDescription(
                name=f"g{g}n{j}t{k}",
                executable=None if failing else "sim",
                function=_scenario_boom if failing else None,
                duration_s=duration, input_staging=staging,
                output_staging=([{"target": f"out-{g}-{j}-{k}",
                                  "size_bytes": 5e8}]
                                if node["output"] else [])))
        return out

    def seen(ctx, name, tasks, now):
        ctx[name] = (now, [(t.uid, t.state) for t in tasks])

    def make(g, j, node):
        name, kind = f"n{j}", node["kind"]
        deps = tuple(f"n{i}" for i in node["deps"])
        common = dict(name=name, deps=deps,
                      failure_tolerance=node["tolerance"])

        def build(ctx):
            if kind == "build_raises":
                raise ValueError(f"build of {name} raised")
            return [] if kind == "build_empty" else descriptions(g, j, node)

        def collect(ctx, tasks):
            if kind == "collect_raises":
                raise ValueError(f"collect of {name} raised")
            now = tasks[0].session.now if tasks else None
            seen(ctx, name, tasks, now)

        def run(runner, ctx):
            engine = runner.session.engine
            if kind == "run_raises":
                yield engine.timeout(node["wait_s"])
                raise ValueError(f"run of {name} raised")
            if kind == "run_wait":
                tasks = yield from runner.submit_and_wait(
                    descriptions(g, j, node), node["tolerance"])
            elif kind == "run_submit":
                tasks = runner.submit(descriptions(g, j, node))
                yield engine.timeout(node["wait_s"])
                yield runner.tmgr.wait_tasks(tasks)
            elif kind == "run_timeout":
                tasks = []
                yield engine.timeout(node["wait_s"])
            else:  # run_noop: a node that never waits
                tasks = []
            seen(ctx, name, tasks, engine.now)

        if kind.startswith("run"):
            return TaskNode(run=run, **common)
        return TaskNode(build=build, collect=collect, **common)

    return [CampaignGraph(f"g{g}", [make(g, j, nodes[j]) for j in order])
            for g, (nodes, order) in enumerate(zip(spec["graphs"],
                                                   spec["orders"]))]


def _run_campaign_scenario(spec, reference):
    """One run of *spec*; everything the property compares."""
    from repro import DataConfig, PilotDescription, PilotManager, TaskManager
    from repro.sim.events import Interrupt
    from repro.workflows import CampaignRunner
    from repro.workflows import campaign as campaign_module
    from workflows.reference_campaign import (ReferenceCampaignRunner,
                                              ReferenceTaskManager)

    states = []

    class SpiedState(campaign_module._GraphState):
        def __init__(self, *args):
            super().__init__(*args)
            states.append(self)

    with Session(seed=spec["seed"],
                 data_config=DataConfig(placement="data_affinity")) as s:
        pmgr = PilotManager(s)
        tmgr = (ReferenceTaskManager if reference else TaskManager)(s)
        tmgr.add_pilots(pmgr.submit_pilots(
            [PilotDescription(resource=name, nodes=2, runtime_s=1e6)
             for name in ("delta", "frontier")[:spec["pilots"]]]))
        finals = {}
        tmgr.register_callback(
            lambda task, state: state in TaskState.FINAL
            and finals.setdefault(task.uid, []).append((state, s.now)))
        runner = (ReferenceCampaignRunner if reference
                  else CampaignRunner)(s, tmgr, window=spec["window"])
        graphs = _scenario_graphs(spec)
        contexts = [{} for _ in graphs]

        def campaign():
            try:
                yield from runner.run_campaign(graphs, contexts)
                return "returned"
            except Interrupt as exc:
                return f"interrupted: {exc.cause}"
            except Exception as exc:
                return f"raised {type(exc).__name__}: {exc}"

        def canceller(when, which):
            yield s.engine.timeout(when)
            if tmgr.tasks:
                tmgr.cancel_tasks(tmgr.tasks[which % len(tmgr.tasks)])

        original = campaign_module._GraphState
        campaign_module._GraphState = SpiedState
        try:
            proc = s.engine.process(campaign())
            if spec["cancel"] is not None:
                s.engine.process(canceller(*spec["cancel"]))
            if spec["interrupt_at"] is None:
                # bounded, so a campaign that never finishes fails the
                # assertion below instead of spinning
                s.run(until=s.engine.any_of([proc, s.engine.timeout(1e4)]))
                assert not proc.is_alive, "the campaign never finished"
            else:
                s.run(until=spec["interrupt_at"])
                proc.interrupt("killed")
            s.quiesce()
            s.run()
        finally:
            campaign_module._GraphState = original
        assert s.engine.peek() == float("inf")
        if reference:
            states = list(runner.states.values())
        rows = {}
        for r in s.profiler.events():
            rows.setdefault(r.uid, []).append((r.time, r.event, r.component))
        dm = tmgr.data_manager
        window = runner.window
        return {
            "outcome": proc.value,
            "status": {st_.graph.name: dict(st_.status) for st_ in states},
            "contexts": contexts,
            "node_tasks": {key: [t.uid for t in tasks]
                           for key, tasks in runner.node_tasks.items()},
            "finals": finals,
            "rows": rows,
            "window": (None if window is None
                       else (window.peak, window.in_flight)),
            "data": (dm.bytes_transferred, dm.bytes_saved, dm.cache_hits,
                     dm.cache_misses, dm.dedup_hits, dm.links_total),
            "now": s.now,
        }


def _node(kind="build", deps=(), durations=(5.0,), failing=None,
          tolerance=0.0, inputs="none", output=False, wait_s=2.3):
    return {"deps": list(deps), "kind": kind, "durations": list(durations),
            "failing": list(failing or [False] * len(durations)),
            "tolerance": tolerance, "inputs": inputs, "output": output,
            "wait_s": wait_s}


def _scenario(graphs, seed=1, pilots=2, window=None, interrupt_at=None,
              cancel=None, orders=None):
    return {"graphs": graphs, "seed": seed, "pilots": pilots,
            "orders": orders or [range(len(nodes)) for nodes in graphs],
            "window": window, "interrupt_at": interrupt_at, "cancel": cancel}


@settings(max_examples=120, deadline=None)
# a window of one slot over chains that stage a shared dataset cold, with a
# service-like run= node downstream: the hybrid_campaign shape
@example(spec=_scenario([[_node(inputs="both"),
                          _node(deps=[0], output=True, durations=(1.0,)),
                          _node("run_wait", deps=[1], durations=(1.0, 1.0))],
                         [_node(inputs="both"),
                          _node(deps=[0], output=True, durations=(1.0,)),
                          _node("run_timeout", deps=[1])]], window=1))
# a failed dependency: the skip cone spreads while the sibling streams
@example(spec=_scenario([[_node(failing=[True]), _node(deps=[0]),
                          _node(deps=[1]), _node("run_wait", deps=[0, 1]),
                          _node(durations=(30.0,))]], window=2))
# tolerated failures flow partial results; a raising collect fails its node
@example(spec=_scenario([[_node(durations=(1.0, 5.0), failing=[True, False],
                                tolerance=0.5),
                          _node("collect_raises", deps=[0]),
                          _node(deps=[1]), _node(deps=[0])]]))
# an interrupt while build nodes and a run= node are live
@example(spec=_scenario([[_node(durations=(1.0,)),
                          _node(deps=[0], durations=(30.0,)),
                          _node("run_submit", deps=[0], durations=(30.0,)),
                          _node(deps=[1, 2])]], window=3, interrupt_at=6.0))
# riders: four nodes stage one shared dataset at once under a wide window
@example(spec=_scenario([[_node(inputs="shared"), _node(inputs="both"),
                          _node(inputs="shared", durations=(1.0, 1.0)),
                          _node("run_wait", inputs="shared", deps=[0])]],
                        window=4))
# siblings released by one settlement start in topological order: n3 (on
# n0 and n1) is inserted ahead of n2 (on n0), n1 settles first
@example(spec=_scenario([[_node(durations=(30.0,)), _node("run_noop"),
                          _node(deps=[0], durations=(1.0,)),
                          _node(deps=[0, 1], durations=(1.0,))]],
                        orders=[[3, 0, 2, 1]]))
# a task cancelled while its chunk queues at the window: its slot goes to
# the next feed, which still starts behind the rest of that chunk
@example(spec=_scenario([[_node(durations=(5.0, 5.0, 5.0, 5.0)),
                          _node(durations=(5.0, 5.0))]], pilots=1, window=2,
                        cancel=(6.0, 2)))
@given(spec=_campaign_scenarios())
def test_campaign_records_match_the_process_per_node_reference(spec):
    """Random DAG campaigns -- build / run= nodes, failing tasks with and
    without tolerance, raising build / collect / run, windows, shared and
    private staged inputs, an interrupt, a cancellation -- leave the same
    statuses, contexts, task uids, final (state, time) per task, profile
    rows per uid, window peak and data-plane counters as one process per
    node, per windowed submit and per staging directive did."""
    got = _run_campaign_scenario(spec, reference=False)
    want = _run_campaign_scenario(spec, reference=True)
    for key in want:
        assert got[key] == want[key], key


# ---------------------------------------------------------------------------
# Descriptions: slotted records vs the dict-backed reference
# ---------------------------------------------------------------------------

class _Directive:
    """A staging entry drawn as a ``StagingDirective`` of either form."""

    def __init__(self, kwargs):
        self.kwargs = kwargs

    def __repr__(self):
        return f"_Directive({self.kwargs!r})"


#: a bare record with a float field (int -> float coercion), a mixed float
#: tuple, a field no default sets and a nested container default
_RATE_SCHEMA = {"rate": float, "scale": (float, str), "label": str,
                "bins": list, "meta": dict}
_RATE_DEFAULTS = {"rate": 0.5, "bins": [], "meta": {"k": [1]}}


def _description_forms():
    """``{name: (shipped class, reference class, minimal valid kwargs)}``."""
    from pilot import reference_config as ref
    from repro.pilot import (PilotDescription, ServiceDescription,
                             StagingDirective)
    from repro.utils.config import Config

    def rate(base, slotted):
        body = {"_schema": _RATE_SCHEMA, "_defaults": _RATE_DEFAULTS}
        if slotted:
            body["__slots__"] = tuple(_RATE_SCHEMA)
        return type("Rate", (base,), body)

    return {
        "task": (TaskDescription, ref.TaskDescription, {}),
        "service": (ServiceDescription, ref.ServiceDescription, {}),
        "staging": (StagingDirective, ref.StagingDirective, {}),
        "pilot": (PilotDescription, ref.PilotDescription,
                  {"resource": "delta", "nodes": 1}),
        "rate": (rate(Config, True), rate(ref.Config, False), {}),
    }


_STAGING_ENTRY = st.one_of(
    st.fixed_dictionaries({}, optional={
        "source": st.sampled_from(["a", "b"]),
        "target": st.sampled_from(["a", "c"]),
        "action": st.sampled_from(["transfer", "copy", "link", "teleport"]),
        "size_bytes": st.one_of(st.integers(-1, 64), st.just(2.5)),
        "bogus": st.just(1)}),
    st.builds(_Directive, st.fixed_dictionaries({}, optional={
        "source": st.just("s"),
        "action": st.sampled_from(["transfer", "copy", "link"]),
        "size_bytes": st.one_of(st.integers(0, 64), st.just(1.5))})),
    st.just("not-a-directive"))

_NUMBER = st.one_of(st.integers(-2, 6), st.floats(-2.0, 1e6),
                    st.booleans())
_VALID = {
    str: st.sampled_from(["", "delta", "x", "copy", "link", "teleport",
                          "llama-8b", "vllm"]),
    int: st.one_of(st.integers(-1, 6), st.booleans()),
    (int, float): _NUMBER,
    float: _NUMBER,
    (float, str): st.one_of(_NUMBER, st.just("wide")),
    tuple: st.tuples(st.integers(0, 3)),
    dict: st.dictionaries(st.sampled_from(["a", "colocate"]),
                          st.integers(0, 3), max_size=2),
    list: st.lists(_STAGING_ENTRY, max_size=2),
    None: st.sampled_from([sum, len, "not-callable", 3]),
}
#: a value of some other type, for every schema type
_WRONG = st.sampled_from(["s", 3, 2.5, True, (), [], {}, b"b"])


def _value_for(schema, key):
    if key not in schema:          # unknown and private names
        return st.one_of(st.integers(0, 3), st.none())
    return st.one_of(_VALID[schema[key]], st.none(), _WRONG)


def _materialise(value, form):
    """A fresh copy of a drawn value, its directives built in *form*."""
    if isinstance(value, _Directive):
        return form.StagingDirective(**value.kwargs)
    if isinstance(value, list):
        return [_materialise(v, form) for v in value]
    if isinstance(value, dict):
        return {k: _materialise(v, form) for k, v in value.items()}
    return value


def _canon(value):
    """A comparable form of a field value: records by class name and
    fields, scalars with their type, so ``2`` and ``2.0`` differ."""
    from pilot import reference_config as ref
    from repro.utils.config import Config

    if isinstance(value, (Config, ref.Config)):
        return (type(value).__name__,
                tuple(sorted((k, _canon(v)) for k, v in
                             value.as_dict().items())))
    if isinstance(value, list):
        return ["list"] + [_canon(v) for v in value]
    if isinstance(value, tuple):
        return ("tuple",) + tuple(_canon(v) for v in value)
    if isinstance(value, dict):
        return ("dict", tuple(sorted((k, _canon(v))
                                     for k, v in value.items())))
    return (type(value).__name__, value)


def _outcome(fn):
    try:
        return ("ok", fn())
    except Exception as exc:  # noqa: BLE001 -- the error is the outcome
        return ("raise", type(exc).__name__, str(exc))


def _observe(record, rebuild):
    """Every read of the contract, as comparable data."""
    keys = list(type(record)._schema) + ["bogus"]
    deep = copy.deepcopy(record)
    return {
        "as_dict": _canon(record.as_dict()),
        "repr": repr(record),
        "eq": (record == record.as_dict(), record == rebuild(),
               record == {}, record != record.as_dict()),
        "copy": _outcome(lambda: (_canon(record.copy().as_dict()),
                                  record.copy() == record)),
        "deepcopy": (type(deep).__name__, repr(deep), deep == record,
                     _canon(deep.as_dict())),
        "fields": [(key, key in record, _canon(record.get(key, "unset")),
                    _outcome(lambda k=key: _canon(getattr(record, k))),
                    _outcome(lambda k=key: _canon(record[k])))
                   for key in keys],
    }


def _run_description(form, cls, spec):
    """Build *cls* from *spec*, apply its writes; every outcome in order."""
    from_dict, kwargs, writes, minimal = spec

    def build(given=None):
        args = ()
        if from_dict is not None:
            args = (_materialise(from_dict, form),)
        made = _materialise(kwargs, form)
        if given is not None:
            given.update(made)
        return cls(*args, **made)

    given = {}
    built = _outcome(lambda: build(given))
    if built[0] == "raise":
        return [built]
    record = built[1]
    # which given containers the record holds as they were given
    aliased = sorted(key for key, value in given.items()
                     if isinstance(value, (list, dict))
                     and record.get(key) is value)
    outcomes = [("ok", _observe(record, build), aliased)]
    for how, key, value in writes:
        value = _materialise(value, form)
        if how == "attr":
            outcomes.append(_outcome(lambda: setattr(record, key, value)))
        else:
            outcomes.append(_outcome(lambda: record.__setitem__(key, value)))
        outcomes.append(("ok", _observe(record, build)))
    # edit every container in place: a default container shared between
    # instances shows up in the next fresh one
    for key in type(record)._schema:
        held = record.get(key)
        if isinstance(held, dict):
            held["m"] = 1
        elif isinstance(held, list):
            held.append(form.StagingDirective(source="m"))
    outcomes.append(_outcome(lambda: _canon(cls(**minimal).as_dict())))
    return outcomes


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slotted_descriptions_match_the_dict_backed_reference(data):
    """The slotted descriptions (and a slotted bare record) answer every
    read of the :class:`~repro.utils.config.Config` contract as the
    dict-backed reference (``tests/pilot/reference_config.py``) does.

    Random keyword sets -- valid values, ints for float fields, ``None``,
    wrong types, unknown and ``_private`` names, staging entries as dicts
    or ``StagingDirective``\\ s, ``from_dict`` with overriding keywords --
    build both forms; random writes through attributes and items follow.
    Both must raise the same error with the same message, or agree on
    ``as_dict``, ``repr``, ``==``, ``copy``, ``copy.deepcopy``, ``in``,
    ``get``, attribute and item reads, after every step.  Last, every
    container field is edited in place, and a fresh default instance must
    not see the edits (no default container is shared)."""
    from pilot import reference_config as ref
    from repro.pilot import description as shipped

    forms = _description_forms()
    name = data.draw(st.sampled_from(sorted(forms)), label="class")
    slotted, reference, minimal = forms[name]
    schema = slotted._schema
    names = st.sampled_from(sorted(schema) + ["bogus", "_private"])

    def keywords(label):
        keys = data.draw(st.lists(names, unique=True, max_size=6),
                         label=label)
        return {k: data.draw(_value_for(schema, k), label=k) for k in keys}

    kwargs = dict(minimal)
    kwargs.update(keywords("kwargs"))
    from_dict = None
    if data.draw(st.booleans(), label="from_dict"):
        from_dict = keywords("from_dict")
    writes = []
    for _ in range(data.draw(st.integers(0, 4), label="writes")):
        how = data.draw(st.sampled_from(["attr", "item"]))
        key = data.draw(names)
        writes.append((how, key, data.draw(_value_for(schema, key))))
    spec = (from_dict, kwargs, writes, minimal)

    got = _run_description(shipped, slotted, spec)
    want = _run_description(ref, reference, spec)
    assert got == want
