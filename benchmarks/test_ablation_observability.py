"""Ablation: what the telemetry plane costs, and that "off" costs nothing.

The observability package promises zero cost when disabled: every hook
site guards with one attribute test, so `Session()` (the default,
``observability=None``) must keep the scheduler hot path at its
established throughput floor.  With the metrics plane on, the grant path
pays one dict write at enqueue and at dequeue (the per-shape depth) and a
histogram observe at grant, whose enqueue time rides in the pending entry
-- bounded, measured here.

Three studies plus a smoke artifact:

1. **steady-state grant throughput** off vs metrics-on on the indexed
   scheduler (same cycle harness as ``test_ablation_sched_throughput``).
   Acceptance: *off* clears the absolute ``MIN_GRANTS_PER_S`` floor, and
   *metrics-on* stays within 15% of *off*: the median on/off ratio over
   interleaved pairs of ``BLOCK``-cycle blocks.  Both schedulers are
   built once, in an interpreter of their own (``python
   test_ablation_observability.py``), the heap is collected, and the two
   take turns block by block (>= 150 ms a side in all), alternating which
   goes first.  What this replaces -- five pairs of separately built
   ~15 ms windows, a second apart, in the pytest process -- failed two
   tier-1 runs in four on a busy box, for two measured reasons and
   neither was the collector (no collection ran in any window): the box
   drifts by tens of percent between windows a second apart (per-pair
   ratios 0.6-1.4, also with 150 ms windows), and late in a tier-1 run
   the process carries the heap of every benchmark before it, where the
   metrics side -- then one more 20k-entry dict touched per grant -- read
   0.85-0.90x in every 1,000-cycle block against 0.92-0.97x alone.

2. **end-to-end TaskManager campaign** off vs every plane on (tracing +
   metrics + monitors): the cost of watching, gated.  ``E2E_PAIRS``
   back-to-back pairs, alternating which side runs first, median of the
   per-pair ratios (the single unpaired shot this replaces last read 1.09x --
   watching made the run *faster* -- i.e. noise).  The tracer only
   records while the campaign runs and builds its spans on the first
   query, so the full side's clock stops after ``len(tracer.spans)``:
   deferring work to the query cannot improve the ratio.  Each run starts
   on a collected heap, as in study 1: without it the second run of a
   pair paid for collecting the first run's session, and late in a tier-1
   run (every module imported, a large heap to traverse) the pairs split
   by order -- 0.43-0.50 with the off side first, 0.88-0.95 with the full
   side first.  Acceptance: the median per-pair full/off ratio stays above
   ``MIN_FULL_RATIO``.

3. **bytes per task read** -- the traced heap a finished task adds when
   its run is read: the profile's rows iterated once and the tracer's
   spans built (``profile_hotpath.read_bytes``: 5,000 mixed-shape tasks,
   16 frontier nodes, ``ObservabilityConfig()``), held under a ceiling.
   The profile's rows are built as they are read and a task span keeps its
   one attribute raw until it is read, so what stays is the spans.

4. the e2e run exports its Chrome trace to
   ``benchmarks/results/observability_smoke_trace.json`` (uploaded as a
   CI artifact) and sanity-checks the span forest before writing it.
"""

import gc
import json
import os
import statistics
import subprocess
import sys
import time
from collections import deque
from contextlib import ExitStack
from pathlib import Path

from conftest import RESULTS_DIR, bench_scale
from profile_hotpath import read_bytes

from repro import ObservabilityConfig
from repro.analytics import ReportBuilder
from repro.observability import BenchResult
from repro.hpc import NodeList
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

DEPTH = bench_scale(20_000)
CYCLES = 15_000
#: cycles per timed block; the two sides alternate block by block
BLOCK = 500
E2E_TASKS = bench_scale(3_000)
#: an end-to-end run is short (tens of ms at CI scale): more pairs
E2E_PAIRS = 9

#: absolute floor with telemetry off (same floor as the scheduler bench)
MIN_GRANTS_PER_S = 2_000
#: metrics-on must retain this fraction of the off throughput
MIN_METRICS_RATIO = 0.85
#: the whole plane on (run + first span query) must retain this fraction of
#: the off end-to-end rate.  Five runs of this module alone at
#: REPRO_BENCH_SCALE=4, each run on a collected heap, read 0.80-0.88 once a
#: transition was recorded only by the profiler (0.74-0.78 while the tracer
#: kept its own copy).  The floor is the lowest read minus 0.1, rounded
#: down to 0.05
MIN_FULL_RATIO = 0.7
#: traced heap bytes a finished task adds when its run is read: 806 on
#: CPython 3.11 (2,525 while rows were kept once read and every task span
#: carried its own attribute dict)
READ_BYTES_CEILING = 1_000

SMOKE_TRACE = RESULTS_DIR / "observability_smoke_trace.json"


def landed(task):
    """A grant's landing: the cycles read ``task.slots`` at the grant."""


def grant_cycle_state(stack, observability):
    """A scheduler with every core held and DEPTH pending, one configuration."""
    session = stack.enter_context(Session(seed=0, profile="off",
                                          observability=observability))
    nodes = NodeList.build(256, 64, 4, 256.0)
    sched = AgentScheduler(session, nodes, "pilot.bench")
    desc = TaskDescription(executable="x", cores_per_rank=4)
    holders = deque()
    for i in range(256 * 64 // 4):
        task = Task(session, desc, f"h{i}")
        sched.schedule(task, landed)
        assert task.slots, "holder must be granted"
        holders.append(task)
    waiters = deque()
    for i in range(DEPTH):
        task = Task(session, desc, f"w{i}")
        sched.schedule(task, landed)
        waiters.append(task)
    return sched, holders, waiters


def timed_cycles(state, cycles):
    """Seconds *cycles* release->grant cycles take on one scheduler."""
    sched, holders, waiters = state
    t0 = time.perf_counter()
    for _ in range(cycles):
        sched.release(holders.popleft())
        granted = waiters.popleft()
        assert granted.slots
        holders.append(granted)
    return time.perf_counter() - t0


def grant_cycle_blocks():
    """Study 1: seconds per BLOCK cycles, (off blocks, metrics-on blocks).

    Both schedulers stay alive and take turns, so the two blocks of a
    pair run within milliseconds of each other, on the same machine.
    """
    with ExitStack() as stack:
        sides = [(grant_cycle_state(stack, None), []),
                 (grant_cycle_state(stack, ObservabilityConfig(
                     tracing=False, monitors=False)), [])]
        gc.collect()  # the set-up's garbage is not the blocks' to collect
        for block in range(min(CYCLES, DEPTH) // BLOCK):
            for state, seconds in sides[::-1] if block % 2 else sides:
                seconds.append(timed_cycles(state, BLOCK))
        return sides[0][1], sides[1][1]


def e2e_rate(observability):
    """Full TaskManager pipeline tasks/sec, one configuration.

    With tracing on the first full span query is on the clock; returns
    (tasks/s, tracer or None, seconds of that query).
    """
    gc.collect()  # not this run's garbage: the previous run's session
    with Session(seed=11, profile="durations",
                 observability=observability) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource="frontier", nodes=128, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        t0 = time.perf_counter()
        tasks = tmgr.submit_tasks(
            [TaskDescription(executable="x", duration_s=60.0,
                             cores_per_rank=2)
             for _ in range(E2E_TASKS)])
        session.run(until=tmgr.wait_tasks(tasks))
        obs = session.observability
        tracer = obs.tracer if obs is not None else None
        t_query = time.perf_counter()
        if tracer is not None:
            assert len(tracer.spans) == 5 * E2E_TASKS
        done = time.perf_counter()
        assert all(t.state == TaskState.DONE for t in tasks)
        return E2E_TASKS / (done - t0), tracer, done - t_query


def export_smoke_trace(tracer) -> int:
    """Sanity-check the span forest, write the CI smoke artifact."""
    roots = [s for s in tracer.spans
             if s.category == "task" and s.parent_id is None]
    assert len(roots) == E2E_TASKS
    by_parent = {}
    for span in tracer.spans:
        by_parent.setdefault(span.parent_id, []).append(span)
    for root in roots[:100]:
        names = [s.name for s in by_parent.get(root.span_id, ())]
        for required in ("submit", "schedule", "execute"):
            assert required in names, (root.name, names)
    n = tracer.to_chrome_trace(str(SMOKE_TRACE))
    payload = json.loads(Path(SMOKE_TRACE).read_text())
    assert len([e for e in payload["traceEvents"] if e["ph"] == "X"]) == n
    return n


def test_observability_overhead(emit):
    report = ReportBuilder("Telemetry-plane overhead (off / metrics / full)")

    # -- study 1: grant-cycle throughput, off vs metrics-on ------------------
    off_s, on_s = json.loads(subprocess.run(
        [sys.executable, __file__], check=True, capture_output=True,
        text=True, env={**os.environ,
                        "PYTHONPATH": os.pathsep.join(sys.path)}).stdout)
    off, on = (BLOCK * len(blocks) / sum(blocks) for blocks in (off_s, on_s))
    pairs = [a / b for a, b in zip(off_s, on_s)]  # on/off, as rates
    ratio = statistics.median(pairs)
    report.add_table(
        ["configuration", "grants/s", "vs off"],
        [["observability=None", f"{off:.0f}", "1.00x"],
         ["metrics on", f"{on:.0f}", f"{ratio:.2f}x"]],
        title=(f"Steady-state grant throughput from {DEPTH} pending "
               f"(median of {len(pairs)} interleaved {BLOCK}-cycle block "
               f"pairs, 256 nodes x 64 cores)"))
    assert off >= MIN_GRANTS_PER_S
    assert ratio >= MIN_METRICS_RATIO, \
        f"metrics-on grant throughput {on:.0f}/s is {ratio:.2f}x of off " \
        f"(pairs: {[round(r, 2) for r in pairs]})"

    # -- study 2 + smoke artifact: full pipeline, every plane on -------------
    full_cfg = ObservabilityConfig(sample_interval_s=60.0)
    e2e_off_runs, e2e_full_runs, query_s = [], [], []
    for pair in range(E2E_PAIRS):
        order = [None, full_cfg]
        if pair % 2:
            order.reverse()
        for config in order:
            rate, traced, first_query_s = e2e_rate(config)
            if config is None:
                e2e_off_runs.append(rate)
            else:
                e2e_full_runs.append(rate)
                query_s.append(first_query_s)
                tracer = traced
    e2e_off = statistics.median(e2e_off_runs)
    e2e_full = statistics.median(e2e_full_runs)
    e2e_pairs = [b / a for a, b in zip(e2e_off_runs, e2e_full_runs)]
    e2e_ratio = statistics.median(e2e_pairs)
    n_spans = export_smoke_trace(tracer)
    report.add_table(
        ["configuration", "tasks/s", "vs off"],
        [["observability=None", f"{e2e_off:.0f}", "1.00x"],
         ["tracing+metrics+monitors, spans queried", f"{e2e_full:.0f}",
          f"{e2e_ratio:.2f}x"]],
        title=(f"End-to-end TaskManager campaign ({E2E_TASKS} tasks, "
               f"medians of {E2E_PAIRS} pairs; first span query "
               f"{statistics.median(query_s) * 1e3:.0f} ms of the full "
               f"side)"))
    assert e2e_ratio >= MIN_FULL_RATIO, \
        f"full-plane end-to-end rate {e2e_full:.0f}/s is {e2e_ratio:.2f}x " \
        f"of off (pairs: {[round(r, 2) for r in e2e_pairs]})"
    report.add_kv({
        "smoke trace": str(SMOKE_TRACE.relative_to(RESULTS_DIR.parent)),
        "spans exported": n_spans,
    }, title="CI artifact")

    # -- study 3: bytes per task read ----------------------------------------
    per_task_read = read_bytes()
    report.add_table(
        ["bytes per task read", "ceiling"],
        [[f"{per_task_read:.0f}", READ_BYTES_CEILING]],
        title=("Traced heap per finished task when its run is read "
               "(rows iterated, spans built; 5k tasks, 16 nodes)"))
    assert per_task_read <= READ_BYTES_CEILING

    # wall-clock rates vary per machine: floor-gated, never drift-gated
    bench = BenchResult(params={"depth": DEPTH, "e2e_tasks": E2E_TASKS})
    bench.record("grants_per_s_off", off, unit="grants/s",
                 floor=MIN_GRANTS_PER_S, scale_free=True,
                 deterministic=False)
    bench.record("metrics_on_throughput_ratio", ratio, unit="x",
                 floor=MIN_METRICS_RATIO, scale_free=True,
                 deterministic=False)
    bench.record("e2e_full_plane_ratio", e2e_ratio, unit="x",
                 floor=MIN_FULL_RATIO, scale_free=True,
                 deterministic=False)
    bench.record("spans_exported", float(n_spans))
    # depends on the interpreter's object layout: ceiling-gated only
    bench.record("read_bytes_per_task", per_task_read, unit="B",
                 direction="lower", floor=READ_BYTES_CEILING,
                 scale_free=True, deterministic=False)
    emit(report, bench=bench)


if __name__ == "__main__":  # study 1, in an interpreter of its own
    print(json.dumps(grant_cycle_blocks()))
