"""cProfile harness for the task path users get.

Profiles a task bag through the public API -- a default ``Session()``
(profile tier ``full``), ``TaskManager.submit_tasks`` of N mixed-shape
executable tasks onto one active pilot, ``session.run(until=wait_tasks)``
-- and prints the kernel's own budget per task (entries made and generator
resumes, read off ``engine.entries`` / ``engine.resumes``), the memory
budget (traced heap bytes per default description, per finished task
with the session still open -- submitted plain and with an
``on_complete`` observer, as the benchmark's bags are -- from untimed
runs under tracemalloc, per task when a traced run is read, and per
request a service client keeps, of noop replies that repeat and of llama
replies whose text differs) and the top functions by cumulative and
internal time.  That is the path ``benchmarks/e2e`` measures as ``task_bag``, so what shows up
here is what a user pays per task: description reads, state transitions,
profile rows, the event kernel, the agent scheduler.  A loop that drives
``AgentScheduler`` directly hides the first three; that loop is profiled
by ``test_ablation_sched_throughput`` under ``REPRO_BENCH_PROFILE=1``.
Re-run this one before touching ``sim/engine.py``, ``pilot/task_manager.py``,
``pilot/profiler.py`` or ``pilot/agent/scheduler.py`` so optimisation
stays measurement-driven.

Usage::

    PYTHONPATH=src python benchmarks/profile_hotpath.py [N_TASKS] [N_NODES]
    PYTHONPATH=src python benchmarks/profile_hotpath.py --pstats out.pstats

With ``--pstats`` the raw profile is written for ``snakeviz`` /
``pstats`` browsing instead of the stdout summary.  For per-benchmark
profiles of the full ablation suite, use ``REPRO_BENCH_PROFILE=1``
with pytest (see ``benchmarks/conftest.py``).
"""

import cProfile
import gc
import pstats
import sys
import time
import tracemalloc

from repro import (
    ObservabilityConfig,
    ServiceClient,
    ServiceDescription,
    ServiceManager,
)
from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
    TaskState,
)

SHAPES = [1, 2, 4, 8]  # cores per task, cycled


def description_bytes(n: int = 10_000) -> float:
    """Traced heap bytes per default ``TaskDescription``, *n* kept alive."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [TaskDescription(executable="x", cores_per_rank=1,
                                duration_s=60.0) for _ in range(n)]
        return (tracemalloc.get_traced_memory()[0] - before) / len(kept)
    finally:
        tracemalloc.stop()


def active_pilot(session, n_nodes: int):
    """One active pilot of *n_nodes* frontier nodes and its task manager."""
    pmgr = PilotManager(session)
    tmgr = TaskManager(session)
    (pilot,) = pmgr.submit_pilots(PilotDescription(
        resource="frontier", nodes=n_nodes, runtime_s=1e9))
    tmgr.add_pilots(pilot)
    session.run(until=pmgr.wait_active([pilot]))
    return pilot, tmgr


def mixed_bag(n_tasks: int):
    """*n_tasks* executable task descriptions, cores cycling over SHAPES."""
    return [TaskDescription(executable="x", duration_s=60.0,
                            cores_per_rank=SHAPES[i % len(SHAPES)])
            for i in range(n_tasks)]


def read_bytes(n_tasks: int = 5_000, n_nodes: int = 16) -> float:
    """Traced heap bytes a finished task adds when its run is read: every
    profile row iterated once and the tracer's spans built, after a bag of
    *n_tasks* mixed-shape tasks with the telemetry plane on."""
    with Session(seed=0, observability=ObservabilityConfig()) as session:
        _, tmgr = active_pilot(session, n_nodes)
        tasks = tmgr.submit_tasks(mixed_bag(n_tasks))
        session.run(until=tmgr.wait_tasks(tasks))
        assert all(t.state == TaskState.DONE for t in tasks)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = sum(1 for _ in session.profiler.events())
            spans = session.observability.tracer.spans
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rows == session.profiler.recorded and spans
        return held / n_tasks


def request_bytes(n_clients: int = 4, n_services: int = 2,
                  n_requests: int = 1_000, model: str = "noop") -> float:
    """Traced heap bytes per request that the clients keep: *n_clients*
    clients each stream *n_requests* round-robin requests at *n_services*
    remote *model* services, and every result stays on its client.  A noop
    reply repeats the one before object for object; a ``"llama-8b"``
    reply's text differs per reply (and is counted: the client keeps it)."""
    with Session(seed=0) as session:
        smgr = ServiceManager(session, registry_platform="delta")
        handles = [smgr.start_remote(ServiceDescription(model=model),
                                     platform="delta")
                   for _ in range(n_services)]
        session.run(until=smgr.wait_ready(handles))
        targets = [h.address for h in handles]
        clients = [ServiceClient(session, platform="delta")
                   for _ in range(n_clients)]

        def stream(client):     # returns nothing: the client keeps the rows
            yield from client.run_workload(targets, n_requests)

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            session.run(until=session.engine.all_of(
                [session.engine.process(stream(c)) for c in clients]))
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        n = sum(len(c.results) for c in clients)
        assert n == n_clients * n_requests
        return held / n


def submit_drain(n_tasks: int, n_nodes: int, track_memory: bool = False,
                 on_complete=None):
    """The profiled workload; returns sustained tasks/sec, the kernel
    entries and generator resumes per task from submission to drain, and
    with *track_memory* the traced heap bytes each finished task still
    holds (else None; tracemalloc slows the run, so never time that one).
    *on_complete* is handed to ``submit_tasks``."""
    with Session(seed=0) as session:
        pilot, tmgr = active_pilot(session, n_nodes)
        engine = session.engine
        entries, resumes = engine.entries, engine.resumes
        if track_memory:
            gc.collect()
            tracemalloc.start()
        t0 = time.perf_counter()
        tasks = tmgr.submit_tasks(mixed_bag(n_tasks),
                                  on_complete=on_complete)
        session.run(until=tmgr.wait_tasks(tasks))
        elapsed = time.perf_counter() - t0
        held = None
        if track_memory:
            held = tracemalloc.get_traced_memory()[0] / n_tasks
            tracemalloc.stop()
        assert all(t.state == TaskState.DONE for t in tasks)
        scheduler = pilot.agent.scheduler
        assert scheduler.queue_length == 0 and not scheduler.held_tasks
        return (n_tasks / elapsed, (engine.entries - entries) / n_tasks,
                (engine.resumes - resumes) / n_tasks, held)


def task_bytes(n_tasks: int = 2_000, n_nodes: int = 16,
               on_complete=None) -> float:
    """Traced heap bytes each of *n_tasks* finished tasks still holds, the
    session open: its record, description, profile records and completion
    event.  The benchmark's bags pass an *on_complete* observer."""
    return submit_drain(n_tasks, n_nodes, track_memory=True,
                        on_complete=on_complete)[3]


def main(argv) -> int:
    pstats_out = None
    if "--pstats" in argv:
        i = argv.index("--pstats")
        pstats_out = argv[i + 1]
        argv = argv[:i] + argv[i + 2:]
    n_tasks = int(argv[0]) if argv else 50_000
    n_nodes = int(argv[1]) if len(argv) > 1 else 256

    profiler = cProfile.Profile()
    profiler.enable()
    rate, entries, resumes, _ = submit_drain(n_tasks, n_nodes)
    profiler.disable()
    held = task_bytes(n_tasks, n_nodes)
    observed = task_bytes(n_tasks, n_nodes, on_complete=lambda task: None)

    print(f"{n_tasks} tasks / {n_nodes} nodes: {rate:.0f} tasks/s")
    print(f"kernel budget per task: {entries:.4f} entries, "
          f"{resumes:.4f} resumes")
    print(f"memory budget: {description_bytes():.0f} B per description, "
          f"{held:.0f} B per finished task ({observed:.0f} B submitted with "
          f"on_complete), {read_bytes():.0f} B per task "
          f"read (5,000 tasks, 16 nodes, telemetry on), "
          f"{request_bytes():.0f} B per request a client keeps (4 clients x "
          f"1,000 noop requests), "
          f"{request_bytes(n_requests=250, model='llama-8b'):.0f} B per "
          f"request with distinct reply text (4 x 250 llama requests)")
    if pstats_out:
        profiler.dump_stats(pstats_out)
        print(f"profile written to {pstats_out}")
    else:
        for sort in ("cumulative", "tottime"):
            print(f"\n== top 25 by {sort} ==")
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats(sort).print_stats(25)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
