"""Ablation: the adaptive data plane (§IV-E future work, realised).

The paper's serving tier is a single-threaded host with an unbounded inbox
and a fixed instance count.  This ablation turns each of the three data
plane upgrades on in isolation and measures what it buys:

1. **continuous batching** -- NOOP at 64 concurrent clients against one
   instance: the serial single-worker baseline saturates at the per-request
   dispatch cost, batched dispatch amortises it (the acceptance target is
   >= 2x throughput at batch 64);
2. **batch size on a real model** -- llama-8b, where prefill adds up
   linearly but decode batches: RT degrades mildly while throughput grows;
3. **bounded admission** -- a full fleet sheds instead of queueing forever:
   tail queueing time collapses while clients absorb the retries;
4. **autoscaling** -- the same bursty trace against a fixed minimal fleet
   and an elastic one.
"""

import pytest

from repro.analytics import (
    ReportBuilder,
    run_autoscaled_workload,
    run_service_workload,
)
from repro.observability import BenchResult

from conftest import bench_scale

N_CLIENTS = 64
N_REQUESTS = bench_scale(64)


@pytest.mark.benchmark(group="ablation-batching")
def test_ablation_batching_and_autoscaling(benchmark, emit):
    results = {}

    def run_all():
        # -- 1: NOOP batching at 64 clients, one instance -------------------
        results["noop"] = {
            "serial (ollama)": run_service_workload(
                N_CLIENTS, 1, deployment="local", model="noop",
                n_requests=N_REQUESTS, seed=11, backend="ollama"),
        }
        for batch in (1, 8, 64):
            results["noop"][f"batched b={batch}"] = run_service_workload(
                N_CLIENTS, 1, deployment="local", model="noop",
                n_requests=N_REQUESTS, seed=11, backend="vllm",
                max_batch_size=batch)

        # -- 2: llama-8b batch sweep ---------------------------------------
        results["llama"] = {}
        for batch in (1, 4, 8):
            results["llama"][f"b={batch}"] = run_service_workload(
                16, 2, deployment="remote", model="llama-8b",
                n_requests=bench_scale(8), seed=7, backend="vllm",
                max_batch_size=batch, max_tokens=64)

        # -- 3: queue bound sweep (serial llama, saturated) ----------------
        results["bound"] = {}
        for bound in (0, 8, 2):
            label = "unbounded" if bound == 0 else f"bound={bound}"
            results["bound"][label] = run_service_workload(
                16, 2, deployment="remote", model="llama-8b",
                n_requests=bench_scale(8), seed=7, backend="ollama",
                max_queue_depth=bound, max_tokens=64)

        # -- 4: autoscaling on/off under one burst -------------------------
        results["scale"] = {
            "fixed fleet": run_autoscaled_workload(
                burst_s=120.0, idle_s=120.0, n_bursts=1, seed=3,
                autoscale=False),
            "autoscaled": run_autoscaled_workload(
                burst_s=120.0, idle_s=120.0, n_bursts=1, seed=3,
                autoscale=True),
        }

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report = ReportBuilder(
        "Ablation -- adaptive data plane: continuous batching, bounded "
        "admission, autoscaling")

    rows = []
    for name, result in results["noop"].items():
        row = result.row()
        rows.append([name, row["rt_mean_s"], f"{row['throughput_rps']:.0f}"])
    report.add_table(
        ["data plane (NOOP, 64 clients, 1 instance)", "RT(mean)", "req/s"],
        rows)

    rows = []
    for name, result in results["llama"].items():
        row = result.row()
        rows.append([name, row["rt_mean_s"], row["inference_mean_s"],
                     f"{row['throughput_rps']:.3f}"])
    report.add_table(
        ["batch (llama-8b, 16 clients, 2 instances)", "RT(mean)",
         "inference", "req/s"], rows)

    rows = []
    for name, result in results["bound"].items():
        rows.append([name, result.metrics.queue_stats.p95,
                     result.shed_total, result.retries_total,
                     f"{result.metrics.throughput(result.makespan_s):.3f}"])
    report.add_table(
        ["admission (llama-8b, 16 clients, 2 instances)",
         "queue p95", "shed", "retries", "req/s"], rows)

    rows = []
    for name, result in results["scale"].items():
        counts = [c for _, c in result.count_trace] or [1]
        rows.append([name, max(counts),
                     result.metrics.n_requests,
                     result.metrics.rt_stats.mean,
                     len(result.scale_events)])
    report.add_table(
        ["fleet (llama-8b burst, 16 clients)", "peak instances",
         "requests served", "RT(mean)", "scale actions"], rows)

    report.add_text(
        "Batched dispatch amortises per-request service cost (>=2x NOOP "
        "throughput at 64 clients); llama batching trades mild RT "
        "degradation for aggregate throughput; bounded queues convert "
        "tail queueing into shed/retry; the autoscaler rides the burst.")

    serial_rps = results["noop"]["serial (ollama)"].metrics.throughput(
        results["noop"]["serial (ollama)"].makespan_s)
    batched_rps = results["noop"]["batched b=64"].metrics.throughput(
        results["noop"]["batched b=64"].makespan_s)
    llama_rps = {k: r.metrics.throughput(r.makespan_s)
                 for k, r in results["llama"].items()}
    bench = BenchResult(params={"n_clients": N_CLIENTS,
                                "n_requests": N_REQUESTS})
    bench.record("noop_serial_rps", serial_rps, unit="req/s")
    bench.record("noop_batch64_rps", batched_rps, unit="req/s")
    bench.record("noop_batching_speedup", batched_rps / serial_rps,
                 unit="x", floor=2.0, scale_free=True)
    bench.record("llama_b8_over_b1",
                 llama_rps["b=8"] / llama_rps["b=1"], unit="x",
                 floor=1.0, scale_free=True)
    bench.record("bound2_queue_p95_s",
                 results["bound"]["bound=2"].metrics.queue_stats.p95,
                 unit="s", direction="lower")
    bench.record("bound2_shed", results["bound"]["bound=2"].shed_total)
    emit(report, bench=bench)

    # -- acceptance ------------------------------------------------------------
    assert batched_rps >= 2.0 * serial_rps, \
        "continuous batching must at least double NOOP throughput"

    # llama: batching raises aggregate throughput
    assert llama_rps["b=8"] > llama_rps["b=1"]

    # bounded admission sheds under saturation and cuts tail queueing
    assert results["bound"]["bound=2"].shed_total > 0
    assert results["bound"]["unbounded"].shed_total == 0
    assert (results["bound"]["bound=2"].metrics.queue_stats.p95
            < results["bound"]["unbounded"].metrics.queue_stats.p95)

    # the autoscaler grew the fleet and served more within the burst
    elastic, fixed = results["scale"]["autoscaled"], \
        results["scale"]["fixed fleet"]
    assert max(c for _, c in elastic.count_trace) > 1
    assert elastic.metrics.n_requests > fixed.metrics.n_requests
