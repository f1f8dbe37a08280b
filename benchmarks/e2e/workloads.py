"""The four workloads of the benchmark of record.

Every workload is closed/batch, one process, one thread.  It is split into
the phases the harness times separately:

* ``generate(seed, scale)`` -- plain-data inputs drawn from the seed (shapes,
  durations, straggler positions, shard ids).  No ``repro`` object is touched:
  the program only ever sees what :meth:`setup` builds from these inputs.
  The seed permutes a *fixed multiset* of shapes and durations, so total
  requested work is identical for every seed and only its arrangement moves.
* ``setup(inputs, seed)``   -- ``Session()``, pilots ACTIVE, services READY,
  description / graph construction.  Returns the live context.
* ``drive(ctx)``            -- the timed phase: first submission to last
  completion event, on both host clocks.  Returns per-op records.
* ``check(ctx, result)``    -- workload-specific correctness checks, run
  after :func:`shutdown` left the system quiescent.

Only the public surface listed in README.md ("Allowed API") is used, so a
later change that is forbidden to edit this file cannot break it by deleting
what ROADMAP.md schedules for deletion.
"""

from __future__ import annotations

import random
import time
from typing import Any, Callable, Dict, List, Tuple

import hostspeed

#: task shapes cycled through both bags: 15 cores per 4 tasks
BAG_CORES = (1, 2, 4, 8)
#: nominal task duration (s) and the half-width of the seeded spread
BAG_DURATION_S = 60.0
BAG_SPREAD_S = 6.0


def scaled(n: int, scale: float, floor: int = 1) -> int:
    return max(floor, int(round(n * scale)))


def bag_inputs(seed: int, n: int) -> List[Tuple[int, float]]:
    """``(cores, duration_s)`` per task: a fixed multiset, seed-permuted."""
    rng = random.Random(seed)
    items = []
    for i in range(n):
        # durations walk a fixed grid over +/- BAG_SPREAD_S, decoupled from
        # the core cycle (period 4) by a period of 97 grid steps
        step = (i * 37) % 97
        items.append((BAG_CORES[i % 4],
                      BAG_DURATION_S - BAG_SPREAD_S
                      + 2 * BAG_SPREAD_S * step / 96))
    rng.shuffle(items)
    return items


class Ctx:
    """Live handles of one set-up, named so layer_trace.py can resolve targets."""

    def __init__(self, inputs: Any) -> None:
        self.inputs = inputs
        self.session = None
        self.pmgr = None
        self.tmgr = None
        self.smgr = None
        self.pilots: List[Any] = []
        self.handles: List[Any] = []
        self.clients: List[Any] = []
        self.balancer = None
        self.runner = None
        #: host seconds spent in the named parts of set-up
        self.parts: Dict[str, float] = {}

    def timed(self, part: str, fn: Callable[[], Any]) -> Any:
        """Run ``fn()`` and add its wall seconds to ``parts[part]``."""
        t0 = time.perf_counter()
        try:
            return fn()
        finally:
            self.parts[part] = (self.parts.get(part, 0.0)
                                + time.perf_counter() - t0)


def _activate(ctx: Ctx, repro, pilot_descs: List[Dict[str, Any]]) -> None:
    def up():
        ctx.pmgr = repro.PilotManager(ctx.session)
        ctx.pilots = ctx.pmgr.submit_pilots(
            [repro.PilotDescription(runtime_s=1e9, **d) for d in pilot_descs])
        ctx.session.run(until=ctx.pmgr.wait_active(ctx.pilots))
    ctx.timed("pilots_s", up)


def _start_services(ctx: Ctx, repro, pilot, n: int, **knobs: Any) -> None:
    def up():
        ctx.smgr = repro.ServiceManager(ctx.session,
                                        registry_platform="delta")
        ctx.handles = ctx.smgr.start_services(
            [repro.ServiceDescription(startup_timeout_s=1e6, **knobs)
             for _ in range(n)], pilot)
        ctx.session.run(until=ctx.smgr.wait_ready(ctx.handles))
    ctx.timed("services_s", up)


def shutdown(ctx: Ctx) -> None:
    """Stop services and daemons, release the allocations, drain the engine.

    ``session.run()`` without ``until`` returns only when no event is left,
    so coming back from it is itself the "engine drains" check.
    """
    if ctx.handles:
        ctx.smgr.stop_services(ctx.handles)
        ctx.session.run(until=ctx.smgr.wait_stopped(ctx.handles))
    ctx.session.quiesce()
    ctx.pmgr.cancel_pilots(ctx.pilots)
    ctx.session.run()


def _task_records(finished: List[Tuple[str, str, float]], t_submit: float,
                  done_state: str) -> Dict[str, Any]:
    return {
        "records": finished,
        "latencies": [t - t_submit for _, state, t in finished
                      if state == done_state],
        "completed": sum(1 for _, state, _ in finished
                         if state == done_state),
    }


def _blockwise(rng: random.Random, n: int, block: int) -> List[int]:
    """``0..block-1`` repeated to length *n*, shuffled within each block."""
    out: List[int] = []
    while len(out) < n:
        ids = list(range(block))
        rng.shuffle(ids)
        out.extend(ids)
    return out[:n]


def _request_records(clients) -> Dict[str, Any]:
    records, latencies = [], []
    for client in clients:
        for i, r in enumerate(client.results):
            ok = bool(r.ok) and not r.busy
            records.append((f"{client.uid}#{i}", "ok" if ok else "failed",
                            r.completed_at))
            if ok:
                latencies.append(r.response_time)
    return {"records": records, "latencies": latencies,
            "completed": len(latencies)}


class Workload:
    """Common shape of a workload; see the module docstring for the phases."""

    name = ""
    #: modules beyond ``repro`` the workload needs, imported (and timed as
    #: import, not as set-up) before the first set-up
    imports: Tuple[str, ...] = ()
    #: sampled set-ups per untraced repetition, after one unsampled warm-up:
    #: more where a set-up is short, about half a second to one and a half
    setup_samples = 3

    def check(self, ctx: Ctx, result: Dict[str, Any]) -> List[str]:
        """Workload-specific correctness errors (empty = correct)."""
        return []


# ---------------------------------------------------------------------------
class TaskBag(Workload):
    """The HPC half: one deep bag of executable tasks on one big pilot."""

    name = "task_bag"
    n_tasks = 50_000
    nodes = 256
    submit_kwargs: Dict[str, Any] = {}

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        return {"tasks": bag_inputs(seed, scaled(self.n_tasks, scale, 64))}

    def attempted(self, inputs: Dict[str, Any]) -> int:
        return len(inputs["tasks"])

    def session(self, repro, seed: int):
        return repro.Session(seed=seed)  # default profile tier: "full"

    def setup(self, repro, inputs: Dict[str, Any], seed: int) -> Ctx:
        ctx = Ctx(inputs)
        ctx.session = self.session(repro, seed)
        ctx.tmgr = repro.TaskManager(ctx.session)
        _activate(ctx, repro, [{"resource": "frontier", "nodes": self.nodes}])
        ctx.tmgr.add_pilots(ctx.pilots)
        ctx.descriptions = ctx.timed("descriptions_s", lambda: [
            repro.TaskDescription(executable="bag", cores_per_rank=cores,
                                  duration_s=duration)
            for cores, duration in inputs["tasks"]])
        return ctx

    def drive(self, ctx: Ctx, repro) -> Dict[str, Any]:
        session = ctx.session
        finished: List[Tuple[str, str, float]] = []

        def on_complete(task) -> None:
            finished.append((task.uid, task.state, session.now))

        t_submit = session.now
        started = hostspeed.mark()
        tasks = ctx.tmgr.submit_tasks(ctx.descriptions,
                                      on_complete=on_complete,
                                      **self.submit_kwargs)
        submit_s = time.perf_counter() - started[0]
        session.run(until=ctx.tmgr.wait_tasks(tasks))
        host = hostspeed.since(started)
        out = _task_records(finished, t_submit, repro.TaskState.DONE)
        out.update(host, sim_makespan_s=session.now - t_submit,
                   submit_s=submit_s)
        return out


class ResilientTracedBag(TaskBag):
    """The same bag used the other way: faults, retries, telemetry on."""

    name = "resilient_traced_bag"
    n_tasks = 40_000
    nodes = 64
    submit_kwargs = {"window": 4096, "chunk_size": 64}

    def session(self, repro, seed: int):
        return repro.Session(
            seed=seed,
            resilience_config=repro.ResilienceConfig(
                heartbeat_interval_s=5.0,
                retry=repro.RetryPolicy(max_retries=5),
                faults=repro.FaultModel(node_mtbf_s=3000.0,
                                        node_mttr_s=120.0)),
            observability=repro.ObservabilityConfig(sample_interval_s=60.0))


# ---------------------------------------------------------------------------
class ServiceNoop(Workload):
    """The ML-service half: the paper's Experiment 2 shape (Figs. 4-5)."""

    name = "service_noop"
    n_clients = 16
    n_services = 8
    requests_per_client = 12_000
    setup_samples = 31  # a set-up is ~3 ms here (the collection ~10)

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        # each client starts its round-robin walk at a seeded service
        return {"requests": scaled(self.requests_per_client, scale, 16),
                "first_target": [rng.randrange(self.n_services)
                                 for _ in range(self.n_clients)]}

    def attempted(self, inputs: Dict[str, Any]) -> int:
        return inputs["requests"] * self.n_clients

    def setup(self, repro, inputs: Dict[str, Any], seed: int) -> Ctx:
        ctx = Ctx(inputs)
        ctx.session = repro.Session(seed=seed)
        _activate(ctx, repro,
                  [{"resource": "delta", "cores": 256, "gpus": 16}])
        _start_services(ctx, repro, ctx.pilots[0], self.n_services,
                        model="noop", gpus_per_rank=0)

        def clients():
            ctx.clients = [repro.ServiceClient(ctx.session, platform="delta")
                           for _ in range(self.n_clients)]
            ctx.balancers = [repro.create_balancer("round-robin")
                             for _ in range(self.n_clients)]
        ctx.timed("descriptions_s", clients)
        ctx.balancer = ctx.balancers[0]
        return ctx

    def drive(self, ctx: Ctx, repro) -> Dict[str, Any]:
        session = ctx.session
        engine = session.engine
        targets = [h.address for h in ctx.handles]
        n = ctx.inputs["requests"]

        def stream(client, balancer, first: int):
            for _ in range(first):  # seeded phase of the round-robin walk
                balancer.pick(targets)
            for _ in range(n):
                target = balancer.pick(targets)
                yield from client.infer(target, "noop", balancer=balancer,
                                        targets=targets)

        t_submit = session.now
        started = hostspeed.mark()
        procs = [engine.process(stream(c, b, first))
                 for c, b, first in zip(ctx.clients, ctx.balancers,
                                        ctx.inputs["first_target"])]
        session.run(until=engine.all_of(procs))
        host = hostspeed.since(started)
        out = _request_records(ctx.clients)
        out.update(host, sim_makespan_s=session.now - t_submit)
        return out


# ---------------------------------------------------------------------------
class HybridCampaign(Workload):
    """AI-out-HPC composition: data staging, campaign DAG, adaptive serving."""

    name = "hybrid_campaign"
    n_items = 6_000
    n_services = 8
    n_clients = 8
    n_shards = 64
    infers_per_item = 4
    straggler_every = 16
    straggler_factor = 12.0
    dataset_bytes = 200e9
    shard_bytes = 5e9
    features_bytes = 100e6
    window = 512
    queue_depth = 12
    model = "llama-70b"
    max_tokens = 4
    #: a shed request backs off and retries until admitted: none may fail
    max_retries = 64
    imports = ("repro.workflows",)
    setup_samples = 11  # a set-up is ~40 ms here

    def generate(self, seed: int, scale: float) -> Dict[str, Any]:
        rng = random.Random(seed)
        n = scaled(self.n_items, scale, 32)
        # one straggler per block of straggler_every items and every shard
        # once per block of n_shards: the seed moves them within the block
        straggler = _blockwise(rng, n, self.straggler_every)
        shard = _blockwise(rng, n, self.n_shards)
        # durations walk a 16-step grid of +/-15 % so completions (and with
        # them inference requests) arrive as a stream, not in lockstep waves
        sim_step = _blockwise(rng, n, 16)
        feat_step = _blockwise(rng, n, 16)
        return {"items": [
            {"shard": shard[i],
             "sim_s": 120.0 * (0.85 + 0.02 * sim_step[i])
             * (self.straggler_factor if straggler[i] == 0 else 1.0),
             "feat_s": 20.0 * (0.85 + 0.02 * feat_step[i])}
            for i in range(n)]}

    def attempted(self, inputs: Dict[str, Any]) -> int:
        n = len(inputs["items"])
        return 2 * n + 1 + self.infers_per_item * n

    def bytes_requested(self, inputs: Dict[str, Any]) -> float:
        return len(inputs["items"]) * (self.dataset_bytes + self.shard_bytes
                                       + self.features_bytes)

    def setup(self, repro, inputs: Dict[str, Any], seed: int) -> Ctx:
        from repro.workflows import CampaignGraph, CampaignRunner, TaskNode

        ctx = Ctx(inputs)
        ctx.session = repro.Session(
            seed=seed,
            data_config=repro.DataConfig(placement="data_affinity"))
        ctx.tmgr = repro.TaskManager(ctx.session)
        _activate(ctx, repro, [{"resource": "delta", "nodes": 16},
                               {"resource": "frontier", "nodes": 16}])
        ctx.tmgr.add_pilots(ctx.pilots)
        _start_services(ctx, repro, ctx.pilots[0], self.n_services,
                        model=self.model, backend="vllm", gpus_per_rank=1,
                        max_concurrency=1, max_batch_size=8,
                        max_queue_depth=self.queue_depth)

        def graph():
            ctx.clients = [repro.ServiceClient(ctx.session, platform="delta",
                                               max_retries=self.max_retries)
                           for _ in range(self.n_clients)]
            ctx.balancer = repro.create_balancer(
                "join-shortest-queue", registry=ctx.smgr.registry)
            targets = [h.address for h in ctx.handles]
            nodes = []
            for i, item in enumerate(inputs["items"]):
                nodes.extend(self._chain(repro, TaskNode, ctx, targets, i,
                                         item))
            nodes.append(TaskNode(
                name="reduce",
                deps=tuple(f"infer-{i}"
                           for i in range(len(inputs["items"]))),
                build=lambda context: [repro.TaskDescription(
                    executable="reduce", cores_per_rank=8, duration_s=30.0)],
                collect=lambda context, tasks: context.__setitem__(
                    "reduce", tasks[0].state)))
            ctx.graph = CampaignGraph("hybrid", nodes)
            ctx.runner = CampaignRunner(ctx.session, ctx.tmgr,
                                        window=self.window)
        ctx.timed("descriptions_s", graph)
        return ctx

    def _chain(self, repro, TaskNode, ctx: Ctx, targets, i: int,
               item: Dict[str, Any]):
        client = ctx.clients[i % self.n_clients]
        balancer = ctx.balancer
        n_infer = self.infers_per_item

        def sim(context, item=item):
            return [repro.TaskDescription(
                executable="sim", cores_per_rank=4, duration_s=item["sim_s"],
                input_staging=[
                    {"source": "dataset", "size_bytes": self.dataset_bytes},
                    {"source": f"shard-{item['shard']}",
                     "size_bytes": self.shard_bytes}])]

        def feat(context, i=i, item=item):
            return [repro.TaskDescription(
                executable="feat", cores_per_rank=1,
                duration_s=item["feat_s"],
                output_staging=[{"target": f"features-{i}",
                                 "size_bytes": self.features_bytes}])]

        def infer(node_runner, context):
            for _ in range(n_infer):
                target = balancer.pick(targets)
                yield from client.infer(target, "score this sample",
                                        {"max_tokens": self.max_tokens},
                                        balancer=balancer, targets=targets)

        return (TaskNode(name=f"sim-{i}", build=sim),
                TaskNode(name=f"feat-{i}", deps=(f"sim-{i}",), build=feat),
                TaskNode(name=f"infer-{i}", deps=(f"feat-{i}",), run=infer,
                         as_service=True))

    def drive(self, ctx: Ctx, repro) -> Dict[str, Any]:
        session = ctx.session
        done = repro.TaskState.DONE
        final = repro.TaskState.FINAL
        finished: List[Tuple[str, str, float]] = []

        def on_state(task, state) -> None:
            if state in final:
                finished.append((task.uid, state, session.now))

        ctx.tmgr.register_callback(on_state)
        t_submit = session.now
        started = hostspeed.mark()
        proc = session.engine.process(ctx.runner.run_campaign(ctx.graph))
        ctx.context = session.run(until=proc)
        host = hostspeed.since(started)
        tasks = _task_records(finished, t_submit, done)
        requests = _request_records(ctx.clients)
        return dict(host,
                    records=tasks["records"] + requests["records"],
                    # per-op latency is the request response time
                    latencies=requests["latencies"],
                    completed=tasks["completed"] + requests["completed"],
                    sim_makespan_s=session.now - t_submit)

    def check(self, ctx: Ctx, result: Dict[str, Any]) -> List[str]:
        errors = []
        if ctx.context.get("reduce") != "DONE":
            errors.append("campaign did not return the reduce node")
        dm = ctx.tmgr.data_manager
        moved_plus_saved = dm.bytes_transferred + dm.bytes_saved
        requested = self.bytes_requested(ctx.inputs)
        if abs(moved_plus_saved - requested) > 1e-6 * requested:
            errors.append(f"byte conservation: moved+saved "
                          f"{moved_plus_saved:.6g} != requested "
                          f"{requested:.6g}")
        return errors


WORKLOADS = {w.name: w for w in (TaskBag(), ServiceNoop(), HybridCampaign(),
                                 ResilientTracedBag())}
