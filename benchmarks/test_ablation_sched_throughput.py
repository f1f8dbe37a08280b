"""Ablation: control-plane hot-path throughput at O(100k)-task scale.

The paper's runtime claims to sustain high task throughput on
leadership-class machines; its companion characterization work shows the
agent scheduler is the component that caps it.  This benchmark measures
exactly that component, three ways, and the description every task starts
from:

1. **steady-state grant throughput at queue depth** -- a full cluster with
   D pending identical requests; each cycle releases one holder and grants
   one waiter.  Run for both the *indexed* production scheduler and the
   *reference* scheduler (``tests/pilot/reference_scheduler.py``, the
   seed's quadratic grant-then-rescan algorithm, kept as executable spec).  The
   seed rescans the whole queue per grant with a linear node scan per
   entry, so its cycle cost is O(depth x nodes); the indexed scheduler's
   is O(log nodes).  The reference is measured at 1k/2k/5k pending, where
   a cycle takes milliseconds; the indexed scheduler also at 10k/50k/100k.
   Acceptance: **>= 5x at every reference depth, and the speedup grows
   with depth** (it lands three orders of magnitude above the floor).

2. **end-to-end submit+drain scaling** -- 10k/50k/100k mixed-shape tasks on
   256/1024/2048-node virtual platforms flow through the indexed scheduler
   driven by the DES engine (each grant lands on the release), reporting
   sustained tasks/sec, and the Python-heap peak (tracemalloc) of the
   smallest run.
   The reference implementation is not run here: at 100k pending a single
   grant cycle costs ~10s, i.e. the full drain would take weeks -- which
   is the point of the refactor.

3. **end-to-end TaskManager campaign** -- the bulk submission path
   (batched uids, chunked drivers) with tiered profiling, reporting
   tasks/sec through the *full* pipeline and the profiler's retained-row
   counts per tier (full vs durations) for the same campaign.

4. **bytes per description** -- the traced heap one default
   ``TaskDescription`` holds (``profile_hotpath.description_bytes``), held
   under a ceiling: every task of a bag starts as one, and they are the
   largest live item at a task bag's peak.

5. **bytes per finished task** -- the traced heap each finished task of a
   2,000-task bag still holds with its session open
   (``profile_hotpath.task_bytes``: its record, description, profile
   records and completion event), held under a ceiling.

Small-N floors double as the CI smoke: a hot-path regression that drags
grant throughput below the floor, or a profiler tier that silently
reverts to unbounded row retention, fails this module at any
``REPRO_BENCH_SCALE``.
"""

import importlib.util
import time
import tracemalloc
from collections import deque
from functools import lru_cache
from pathlib import Path

from conftest import bench_scale
from profile_hotpath import description_bytes, task_bytes

from repro.analytics import ReportBuilder
from repro.hpc import NodeList
from repro.observability import BenchResult
from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)
from repro.pilot.agent.scheduler import AgentScheduler
from repro.pilot.task import Task

# the oracle lives beside the tests; loaded by path, so this module runs
# on its own without tests/ being collected
_ORACLE = importlib.util.spec_from_file_location(
    "reference_scheduler", Path(__file__).resolve().parents[1] / "tests"
    / "pilot" / "reference_scheduler.py")
_oracle = importlib.util.module_from_spec(_ORACLE)
_ORACLE.loader.exec_module(_oracle)
ReferenceScheduler = _oracle.ReferenceScheduler

# -- study 1: steady-state grant throughput at depth -------------------------
DEPTHS = [bench_scale(10_000), bench_scale(50_000), bench_scale(100_000)]
#: depths the reference is measured at too (one cycle costs milliseconds)
REFERENCE_DEPTHS = [bench_scale(1_000), bench_scale(2_000),
                    bench_scale(5_000)]
DEPTH_NODES = 256
TASK_CORES = 4
#: measured release->grant cycles per sample.  The reference scheduler
#: pays a full O(depth x nodes) rescan per cycle, so its sample is small.
CYCLES_INDEXED = 1000
CYCLES_REFERENCE = 4

# -- study 2: end-to-end submit+drain scaling --------------------------------
SCALING = [
    (bench_scale(10_000), 256),
    (bench_scale(50_000), 1024),
    (bench_scale(100_000), 2048),
]
#: mixed request shapes (cores, gpus) cycled across submissions
SHAPES = [(1, 0), (2, 0), (4, 1), (8, 0)]

# -- study 3: full-pipeline campaign -----------------------------------------
E2E_TASKS = bench_scale(5_000)
E2E_CHUNK = 512

#: CI smoke floors (conservative: >= 10x headroom on a laptop-class core)
MIN_GRANTS_PER_S = 2_000
MIN_E2E_TASKS_PER_S = 500
#: traced heap bytes per default TaskDescription: about 178 on CPython
#: 3.10-3.13, 418 while its four empty containers were built per instance,
#: 538-939 in the dict-backed form
DESCRIPTION_BYTES_CEILING = 500
#: traced heap bytes per finished task (2,000 tasks, 16 nodes): 932 on
#: CPython 3.10, 881 on 3.11, 872 on 3.12 (1,622 / 1,411 / 1,394 while the
#: profile log was one flat list, tasks kept a __dict__ and a default
#: description built its four empty containers); the largest plus 25%
TASK_BYTES_CEILING = 1165


@lru_cache(maxsize=None)
def shape_description(cores, gpus):
    """One description per request shape, shared by every task of that
    shape (as a bag's tasks share theirs): the studies time the
    scheduler, not 200k description constructions."""
    return TaskDescription(executable="x", cores_per_rank=cores,
                           gpus_per_rank=gpus)


def make_task(session, uid, cores=TASK_CORES, gpus=0):
    return Task(session, shape_description(cores, gpus), uid)


def steady_state_cycle_rate(make_sched, depth, cycles):
    """Grant cycles/sec at *depth* pending for one scheduler implementation.

    Fills a 256-node x 64-core platform with 4-core holders, queues
    *depth* identical waiters, then times `cycles` release->grant cycles.
    """
    with Session(seed=0, profile="off") as session:
        nodes = NodeList.build(DEPTH_NODES, 64, 4, 256.0)
        sched, inject = make_sched(session, nodes)
        capacity = DEPTH_NODES * 64 // TASK_CORES
        holders = deque()
        for i in range(capacity):
            task = make_task(session, f"h{i}")
            inject_ok = inject(sched, task, grant_expected=True)
            assert inject_ok, "holder must be granted"
            holders.append(task)
        waiters = deque()
        for i in range(depth):
            task = make_task(session, f"w{i}")
            inject(sched, task, grant_expected=False)
            waiters.append(task)
        assert sched.queue_length == depth
        t0 = time.perf_counter()
        for _ in range(cycles):
            holder = holders.popleft()
            sched.release(holder)           # frees 4 cores -> grants head
            granted = waiters.popleft()
            assert granted.slots, "head waiter must be granted by the cycle"
            holders.append(granted)
        elapsed = time.perf_counter() - t0
        assert sched.queue_length == depth - cycles
        return cycles / elapsed


def _landed(task):
    """A grant's landing in the cycle study: the cycle reads ``task.slots``
    at the grant, so the landing has nothing left to do."""


def _make_indexed(session, nodes):
    sched = AgentScheduler(session, nodes, "pilot.bench")

    def inject(s, task, grant_expected):
        s.schedule(task, _landed)
        return bool(task.slots) == grant_expected or bool(task.slots)
    return sched, inject


def _make_reference(session, nodes):
    """Reference scheduler with direct pending-state injection.

    The seed re-sorts the pending list and rescans it on *every* submit,
    so building a 50k-deep queue through ``schedule()`` alone is itself
    quadratic.  Holders go through the real API (they grant immediately);
    waiters are appended directly in (priority, seq) order -- exactly the
    state ``schedule()`` would have produced -- so the timed section
    measures the grant cycle, not the setup.
    """
    sched = ReferenceScheduler(session, nodes, "pilot.bench")

    def inject(s, task, grant_expected):
        if grant_expected:
            s.schedule(task)
            return bool(task.slots)
        entry = (-task.description.priority, next(s._seq), task,
                 session.engine.event())
        s._pending.append(entry)
        return True
    return sched, inject


def submit_drain_rate(n_tasks, n_nodes, track_memory=False):
    """End-to-end submit+drain through the engine; returns a result dict.

    Every grant lands on ``sched.release``, as a finished task's slots go
    back, so the drain is fully event-driven: one ``session.run()`` flushes
    the entire campaign through placement.
    """
    if track_memory:
        tracemalloc.start()
    with Session(seed=0, profile="durations") as session:
        nodes = NodeList.build(n_nodes, 64, 8, 512.0)
        sched = AgentScheduler(session, nodes, "pilot.scale")
        t0 = time.perf_counter()
        for i in range(n_tasks):
            cores, gpus = SHAPES[i % len(SHAPES)]
            task = make_task(session, f"t{i}", cores, gpus)
            sched.schedule(task, sched.release)
        t_submit = time.perf_counter() - t0
        session.run()
        elapsed = time.perf_counter() - t0
        assert sched.queue_length == 0 and not sched.held_tasks
        stats = sched.stats.as_dict()
        result = {
            "tasks": n_tasks, "nodes": n_nodes,
            "submit_s": t_submit, "total_s": elapsed,
            "tasks_per_s": n_tasks / elapsed,
            "place_attempts": stats["place_attempts"],
            "passes": stats["passes"],
        }
        if track_memory:
            _cur, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            result["peak_heap_mb"] = peak / 1e6
        return result


def e2e_campaign_rate(profile, chunk_size):
    """Full TaskManager pipeline wall-clock throughput."""
    with Session(seed=11, profile=profile) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource="frontier", nodes=256, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        t0 = time.perf_counter()
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=60.0,
                             cores_per_rank=2)
             for _ in range(E2E_TASKS)], chunk_size=chunk_size)
        session.run(until=tmgr.wait_tasks(tasks))
        elapsed = time.perf_counter() - t0
        assert all(t.state == TaskState.DONE for t in tasks)
        return {
            "tasks_per_s": E2E_TASKS / elapsed,
            "wall_s": elapsed,
            "makespan_sim_s": session.now,
            "rows_kept": len(session.profiler),
            "rows_recorded": session.profiler.recorded,
        }


def test_scheduler_throughput_scaling(emit):
    report = ReportBuilder(
        "Scheduler hot-path throughput "
        "(indexed vs seed-reference, then scaling)")

    # -- study 1: indexed vs reference at queue depth ------------------------
    speedup_at = {}
    indexed_at = {}
    depth_rows = []
    for depth in REFERENCE_DEPTHS + DEPTHS:
        indexed = steady_state_cycle_rate(_make_indexed, depth,
                                          min(CYCLES_INDEXED, depth))
        indexed_at[depth] = indexed
        assert indexed >= MIN_GRANTS_PER_S
        if depth not in REFERENCE_DEPTHS:
            depth_rows.append([depth, f"{indexed:.0f}", "-", "-"])
            continue
        reference = steady_state_cycle_rate(_make_reference, depth,
                                            min(CYCLES_REFERENCE, depth))
        speedup_at[depth] = indexed / reference
        depth_rows.append([depth, f"{indexed:.0f}", f"{reference:.1f}",
                           f"{indexed / reference:.0f}x"])
    report.add_table(
        ["pending depth", "indexed grants/s", "reference grants/s",
         "speedup"],
        depth_rows,
        title=(f"Steady-state grant throughput at queue depth "
               f"({DEPTH_NODES} nodes x 64 cores, {TASK_CORES}-core "
               f"tasks; reference = seed's grant-then-rescan algorithm)"))
    # acceptance: >= 5x over the pre-refactor baseline at every depth,
    # and the gap widens as the queue deepens (O(depth x nodes) vs O(log))
    speedups = [speedup_at[depth] for depth in REFERENCE_DEPTHS]
    assert min(speedups) >= 5.0
    assert all(a < b for a, b in zip(speedups, speedups[1:])), speedups

    # -- study 2: end-to-end submit+drain scaling ----------------------------
    scale_rows = []
    # memory is measured on a separate run of the smallest size:
    # tracemalloc slows the traced process several-fold, so timing and
    # peak-heap must not share a run
    mem = submit_drain_rate(*SCALING[0], track_memory=True)
    for n_tasks, n_nodes in SCALING:
        r = submit_drain_rate(n_tasks, n_nodes)
        heap = (f"{mem['peak_heap_mb']:.0f}"
                if (n_tasks, n_nodes) == SCALING[0] else "-")
        scale_rows.append([
            r["tasks"], r["nodes"], f"{r['tasks_per_s']:.0f}",
            f"{r['total_s']:.2f}", r["place_attempts"], r["passes"], heap])
        assert r["tasks_per_s"] >= MIN_GRANTS_PER_S
        # event-driven rescans: placement attempts stay O(tasks x shapes),
        # never O(tasks x queue depth) -- each task is placed exactly once,
        # and each capacity change probes at most one failed attempt per
        # distinct request shape before the memo silences it
        assert r["place_attempts"] <= n_tasks * (1 + len(SHAPES)) + 10
    report.add_table(
        ["tasks", "nodes", "tasks/s", "wall s", "place attempts", "passes",
         "peak heap MB"],
        scale_rows,
        title=("End-to-end submit+drain scaling (indexed, mixed shapes, "
               "event-driven releases; the reference is omitted -- one "
               "grant cycle at 100k depth costs ~10s, a full drain would "
               "take weeks)"))

    # -- study 3: full-pipeline campaign with tiered profiling ---------------
    full = e2e_campaign_rate("full", chunk_size=None)
    tiered = e2e_campaign_rate("durations", chunk_size=E2E_CHUNK)
    report.add_table(
        ["configuration", "tasks/s", "profiler rows kept",
         "rows recorded"],
        [["profile=full, unchunked", f"{full['tasks_per_s']:.0f}",
          full["rows_kept"], full["rows_recorded"]],
         [f"profile=durations, chunk={E2E_CHUNK}",
          f"{tiered['tasks_per_s']:.0f}", tiered["rows_kept"],
          tiered["rows_recorded"]]],
        title=(f"Full TaskManager pipeline ({E2E_TASKS} tasks, 256-node "
               f"pilot, bulk submission path)"))
    assert tiered["tasks_per_s"] >= MIN_E2E_TASKS_PER_S
    # the durations tier must bound memory: no per-event row retention
    assert tiered["rows_kept"] == 0
    assert full["rows_kept"] >= E2E_TASKS  # full tier keeps everything

    # -- study 4: bytes per description -------------------------------------
    per_description = description_bytes()
    report.add_table(
        ["bytes per description", "ceiling"],
        [[f"{per_description:.0f}", DESCRIPTION_BYTES_CEILING]],
        title="Traced heap per default TaskDescription (10k kept alive)")
    assert per_description <= DESCRIPTION_BYTES_CEILING

    # -- study 5: bytes per finished task -----------------------------------
    per_task = task_bytes()
    report.add_table(
        ["bytes per finished task", "ceiling"],
        [[f"{per_task:.0f}", TASK_BYTES_CEILING]],
        title="Traced heap per finished task (2,000 tasks, 16 nodes, "
              "session open)")
    assert per_task <= TASK_BYTES_CEILING

    # wall-clock rates vary per machine: floor-gated, never drift-gated
    bench = BenchResult(params={"depths": DEPTHS,
                                "reference_depths": REFERENCE_DEPTHS,
                                "e2e_tasks": E2E_TASKS})
    bench.record("indexed_grants_per_s", indexed_at[DEPTHS[0]],
                 unit="grants/s", floor=MIN_GRANTS_PER_S,
                 scale_free=True, deterministic=False)
    bench.record("indexed_over_reference_5k",
                 speedup_at[REFERENCE_DEPTHS[-1]],
                 unit="x", floor=5.0, scale_free=True,
                 deterministic=False)
    bench.record("e2e_tiered_tasks_per_s", tiered["tasks_per_s"],
                 unit="tasks/s", floor=MIN_E2E_TASKS_PER_S,
                 scale_free=True, deterministic=False)
    bench.record("durations_tier_rows_kept",
                 float(tiered["rows_kept"]), direction="lower",
                 floor=0.0, scale_free=True)
    bench.record("e2e_makespan_sim_s", tiered["makespan_sim_s"],
                 unit="s", direction="lower")
    # depends on the interpreter's object layout: ceiling-gated only
    bench.record("description_bytes", per_description, unit="B",
                 direction="lower", floor=DESCRIPTION_BYTES_CEILING,
                 scale_free=True, deterministic=False)
    bench.record("task_bytes", per_task, unit="B", direction="lower",
                 floor=TASK_BYTES_CEILING, scale_free=True,
                 deterministic=False)
    emit(report, bench=bench)
