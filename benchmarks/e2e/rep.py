"""One repetition of one workload, run in a fresh subprocess by run.py.

Usage: ``python rep.py '<json spec>'`` with keys ``workload``, ``seed``,
``scale``, ``trace`` and optionally ``trace_out``.  Prints one JSON record
on the last line of stdout.  Phases, each timed on the **host** clock:

``import`` -> ``generate`` -> warm-up set-up -> ``setup`` x
``workload.setup_samples`` (3 if traced) -> timed phase -> ``drain`` ->
checks.  Host times are reference seconds (hostspeed.py).  The first set-up
runs every code path cold (3-5x the steady cost on a set-up of a few
milliseconds) and is not sampled; in a traced repetition it also serves to
resolve trace targets, so the sessions that follow are built with the
wrappers already in place.  Each sampled set-up starts like the only set-up
of a fresh process would: the previous session is closed and dropped and the
heap collected *before* the clock starts, so no sample pays for its
predecessor's garbage.  ``setup_s`` is the median of the samples.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import hostspeed
from layer_trace import Tracer, resolve

#: a traced repetition reports set-up only by part, unbounded: 3 samples do
TRACED_SETUP_SAMPLES = 3


def probe(obj: Any, path: str) -> Optional[Any]:
    """``obj.a.b.0.c`` or None: counters of layers that may not exist."""
    try:
        return resolve(obj, path)
    except LookupError:
        return None


def total(objs: List[Any], path: str) -> Optional[float]:
    values = [probe(o, path) for o in objs]
    return None if not values or None in values else sum(values)


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def sim_digest(records: List[tuple], sim: Dict[str, float]) -> str:
    sha = hashlib.sha256()
    for uid, state, t in sorted(records):
        sha.update(f"{uid}\x00{state}\x00{t!r}\n".encode())
    for name in sorted(sim):
        sha.update(f"{name}={sim[name]!r}\n".encode())
    return sha.hexdigest()


def slot_leaks(ctx: Any) -> List[str]:
    """After drain: no task holds a slot, every *up* node is fully free."""
    errors = []
    holding = [t.uid for t in (probe(ctx, "tmgr.tasks") or []) if t.slots]
    if holding:
        errors.append(f"{len(holding)} finished tasks still hold slots "
                      f"(first: {holding[0]})")
    for pilot in ctx.pilots:
        held = probe(pilot, "agent.scheduler.held_tasks")
        if held:
            errors.append(f"{pilot.uid}: scheduler still holds {len(held)} "
                          f"tasks (first: {held[0]})")
        for node in pilot.nodes:
            if node.is_up and (node.free_cores != node.num_cores
                               or node.free_gpus != node.num_gpus):
                errors.append(f"{node.name}: up but not fully free "
                              f"({node.free_cores}/{node.num_cores} cores)")
                break
    return errors


def layer_counts(ctx: Any) -> Dict[str, Optional[float]]:
    """Exact per-layer counts readable from program state without tracing.

    Every value is probed defensively: a counter a later refactor removes
    comes back ``None`` (reported as absent), never as a crash.
    """
    s = ctx.session
    schedulers = [probe(p, "agent.scheduler") for p in ctx.pilots]
    instances = [probe(h, "instance") for h in ctx.handles]
    dm = probe(ctx, "tmgr.data_manager")
    rows = probe(s, "profiler.events")
    crashes = probe(s, "resilience.injector.faults")
    lease = probe(s, "resilience.monitor.lease")
    series = probe(s, "observability.metrics.series")
    return {
        "comm.bus.messages": probe(s, "bus.delivered_count"),
        "pilot.task_manager.tasks": size(ctx, "tmgr.tasks"),
        "pilot.task_manager.transitions": (
            None if rows is None else
            sum(1 for r in rows() if r.event.startswith("state:"))),
        "pilot.agent.scheduler.place_attempts":
            total(schedulers, "stats.place_attempts"),
        "pilot.agent.scheduler.grants": total(schedulers, "stats.grants"),
        "pilot.profiler.rows": probe(s, "profiler.recorded"),
        "data.cache_hits": probe(dm, "cache_hits"),
        "data.cache_misses": probe(dm, "cache_misses"),
        "data.dedup_hits": probe(dm, "dedup_hits"),
        "data.bytes_moved": probe(dm, "bytes_transferred"),
        "data.transfers": (None if dm is None else
                           size(s, "data.transfers.records")),
        "core.client.requests": sum(len(c.results) for c in ctx.clients),
        "core.client.retries": total(ctx.clients, "retries"),
        "core.client.busy_replies": total(ctx.clients, "busy_replies"),
        "core.service.handled": total(instances, "requests_handled"),
        "core.service.shed": total(instances, "shed_count"),
        "core.service.batches": total(instances, "batches_handled"),
        "workflows.campaign.nodes_run": size(ctx, "graph"),
        "workflows.campaign.window_peak": probe(ctx, "runner.window.peak"),
        "resilience.faults_injected": (
            None if crashes is None else len(crashes("node_crash"))),
        "resilience.failures_detected":
            size(s, "resilience.monitor.detections"),
        "resilience.retries_granted": size(s, "resilience.recovery.records"),
        "resilience.heartbeats": (
            None if lease is None else
            sum(lease(p.uid).beats for p in ctx.pilots)),
        "observability.spans": size(s, "observability.tracer.spans"),
        "observability.metric_samples": (
            None if series is None else sum(map(len, series.values()))),
        "observability.anomalies": size(s, "observability.monitors.events"),
    }


def size(obj: Any, path: str) -> Optional[int]:
    value = probe(obj, path)
    return None if value is None else len(value)


def derived(counts: Dict[str, Optional[float]]) -> None:
    def ratio(name: str, num: List[str], den: List[str]) -> None:
        parts = [counts.get(k) for k in num + den]
        bottom = sum(counts.get(k) or 0 for k in den)
        counts[name] = (None if None in parts or not bottom else
                        sum(counts[k] for k in num) / bottom)
    ratio("pilot.agent.scheduler.grants_per_attempt",
          ["pilot.agent.scheduler.grants"],
          ["pilot.agent.scheduler.place_attempts"])
    ratio("data.hit_rate", ["data.cache_hits", "data.dedup_hits"],
          ["data.cache_hits", "data.dedup_hits", "data.cache_misses"])
    ratio("core.service.mean_batch_size", ["core.service.handled"],
          ["core.service.batches"])


def traced_counts(tracer: Any, counts: Dict[str, Optional[float]]) -> None:
    """Counts only the wrappers can see (calls at layer boundaries)."""
    events = (tracer.calls_of("sim.engine", "schedule")
              + tracer.calls_of("sim.engine", "call_later"))
    engine_self = tracer.layers().get("sim.engine", {}).get("self_s", 0.0)
    counts.update({
        "sim.engine.events": events,
        "sim.engine.process_resumes": tracer.process_resumes,
        "sim.engine.self_us_per_event":
            engine_self / events * 1e6 if events else None,
        "pilot.agent.scheduler.schedule_calls":
            tracer.calls_of("pilot.agent.scheduler", "schedule"),
        "pilot.agent.scheduler.release_calls":
            tracer.calls_of("pilot.agent.scheduler", "release"),
        "pilot.agent.scheduler.withdraw_calls":
            tracer.calls_of("pilot.agent.scheduler", "withdraw"),
        "pilot.agent.scheduler.pending_peak": tracer.pending_peak,
        "hpc.node.find_fit_calls": tracer.calls_of("hpc.node", "find_fit"),
        "hpc.node.allocs": tracer.calls_of("hpc.node", "allocate"),
        "pilot.agent.executor.execute_calls":
            tracer.calls_of("pilot.agent.executor", "execute"),
        "pilot.data_manager.stage_calls":
            tracer.calls_of("pilot.data_manager", "stage"),
        "hpc.network.flows": tracer.calls_of("hpc.network", "transfer"),
        "serving.backend.infer_calls":
            tracer.calls_of("serving.backend", "infer_batch")
            + tracer.calls_of("serving.backend", "infer"),
    })


def main(spec: Dict[str, Any]) -> Dict[str, Any]:
    from workloads import WORKLOADS, shutdown
    workload = WORKLOADS[spec["workload"]]
    seed, scale = spec["seed"], spec["scale"]

    t0 = time.perf_counter()
    import repro
    for module in workload.imports:
        importlib.import_module(module)
    import_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    inputs = workload.generate(seed, scale)
    generate_s = time.perf_counter() - t0

    tracer = None
    ctx = workload.setup(repro, inputs, seed)  # warm-up, not sampled
    if spec["trace"]:
        tracer = Tracer()
        # a SharedLink to resolve hpc.network on, made on the throwaway
        # session so the measured one is left alone
        link = probe(ctx, "session.data.transfers.link")
        ctx.link = link and link("localhost", ctx.pilots[0].platform.name)
        tracer.install(ctx)
    else:
        hostspeed.start()
    setups: List[Dict[str, float]] = []
    sampling = hostspeed.mark()
    for _ in range(TRACED_SETUP_SAMPLES if tracer
                   else workload.setup_samples):
        ctx.session.close()
        ctx = None
        gc.collect()
        began = hostspeed.mark()
        ctx = workload.setup(repro, inputs, seed)
        setups.append(dict(ctx.parts,
                           setup_s=hostspeed.since(began)["net_wall_s"]))

    attempted = workload.attempted(inputs)
    gc.collect()
    if tracer is not None:
        result = tracer.run_root(lambda: workload.drive(ctx, repro))
    else:
        result = workload.drive(ctx, repro)
    # set-up samples are short: they take the host speed of the whole
    # stretch from the first of them to the end of the timed phase
    setup_speed = hostspeed.since(sampling)["host_speed"]
    hostspeed.stop()

    shutdown(ctx)

    latencies = sorted(result["latencies"])
    sim = {"sim_makespan_s": result["sim_makespan_s"],
           "sim_latency_p50_s": percentile(latencies, 0.50),
           "sim_latency_p99_s": percentile(latencies, 0.99)}
    errors = slot_leaks(ctx) + workload.check(ctx, result)
    if len(result["records"]) != attempted:
        errors.append(f"accounting: {len(result['records'])} op records "
                      f"for {attempted} attempted ops")
    counts = layer_counts(ctx)
    if tracer is not None:
        traced_counts(tracer, counts)
    derived(counts)

    record: Dict[str, Any] = {
        "workload": workload.name, "seed": seed, "scale": scale,
        "traced": tracer is not None,
        "hashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "attempted": attempted,
        "completed": result["completed"],
        "failed": attempted - result["completed"],
        "latency_samples": len(latencies),
        "wall_s": result["wall_s"], "cpu_s": result["cpu_s"],
        "raw_wall_s": result["raw_wall_s"], "raw_cpu_s": result["raw_cpu_s"],
        "host_speed": result["host_speed"],
        "setup_samples_s": [p["setup_s"] for p in setups],
        "setup_host_speed": setup_speed,
        "setup_parts": {k: statistics.median(p.get(k, 0.0) for p in setups)
                        for k in ("pilots_s", "services_s",
                                  "descriptions_s")},
        "submit_s": result.get("submit_s"),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim": sim,
        "sim_digest": sim_digest(result["records"], sim),
        "counts": counts,
        "errors": errors,
        "harness": {"nproc": os.cpu_count(),
                    "threads": threading.active_count(),
                    "import_s": import_s, "generate_s": generate_s,
                    "python": platform.python_version()},
    }
    if tracer is not None:
        record["trace"] = tracer.summary()
        if spec.get("trace_out"):
            record["trace"]["chrome_trace"] = spec["trace_out"]
            record["trace"]["chrome_events"] = tracer.write_chrome_trace(
                spec["trace_out"])
    return record


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
