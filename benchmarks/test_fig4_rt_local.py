"""Figure 4: Service Response Times for local NOOP inference (Experiment 2).

Strong scaling (16 clients against 1,2,4,8,16 Delta-local services) and
weak scaling (n clients / n services), each client issuing 1024 NOOP
requests.  Series reported: communication / service / inference components
of RT -- communication dominates, inference is negligible (noop).

The RT split of one strong-scaling and one weak-scaling point is recorded
as a :class:`BenchResult` (sim clock, exact under the seed), so a change
that moves the paper's Experiment-2 numbers fails the regression gate
against ``BENCH_fig4_rt_local.json`` instead of needing a manual diff of
the ``.txt``.

Next to it, the traced heap per request that a client keeps
(``profile_hotpath.request_bytes``: 4 clients x 1,000 noop requests over 2
services) is held under a ceiling: at paper scale the client's result log
is the runtime's largest per-request store.  The same drive at llama
services, 4 x 250 requests whose reply text differs per reply, is held
under what it read while the log kept each reply's dict: a payload that
does not repeat must never cost more than the dict did.
"""

import time

import pytest

from repro.analytics import (
    REQUESTS_PER_CLIENT,
    STRONG_SCALING_GRID,
    WEAK_SCALING_GRID,
    ReportBuilder,
    run_experiment2,
)
from repro.observability.bench import BenchResult
from conftest import bench_scale
from profile_hotpath import request_bytes

#: the RT split recorded for the gated grid points
RT_COMPONENTS = ("rt_mean_s", "communication_mean_s", "service_mean_s",
                 "inference_mean_s")
#: traced heap bytes a client keeps per noop request: 75 on CPython 3.11
#: (261 while the log kept each reply's dict, 466 while every result was an
#: object).  Replayed into a client without numpy, the same stream reads
#: 74.3 on 3.10 and 73.6 on 3.11-3.13 (306 and 257 with the dicts); the
#: replay reads 2 B under the live run.  The ceiling is the largest
#: reading, 3.10's ~76, + 25 %
CLIENT_BYTES_CEILING = 95
#: the same per request of 4 x 250 llama requests, the reply text (kept)
#: differing per reply: 1,608 on CPython 3.11, 1,588 on 3.10 and 1,580 on
#: 3.12-3.13 replayed.  The ceiling is the 3.11 reading while the log kept
#: each reply's dict, 1,703.6, rounded down: that log fails it
DISTINCT_BYTES_CEILING = 1_703


def _rows(results):
    rows = []
    for (c, s), result in results.items():
        row = result.row()
        rows.append([f"{c}/{s}", row["rt_mean_s"],
                     row["communication_mean_s"], row["service_mean_s"],
                     row["inference_mean_s"],
                     f"{row['throughput_rps']:.0f}"])
    return rows


@pytest.mark.benchmark(group="fig4")
def test_fig4_rt_local_strong_and_weak(benchmark, emit):
    n_requests = bench_scale(REQUESTS_PER_CLIENT)
    strong, weak = {}, {}

    def run_all():
        for clients, services in STRONG_SCALING_GRID:
            strong[(clients, services)] = run_experiment2(
                clients, services, "local", n_requests=n_requests, seed=11)
        for clients, services in WEAK_SCALING_GRID:
            weak[(clients, services)] = run_experiment2(
                clients, services, "local", n_requests=n_requests, seed=12)

    t0 = time.perf_counter()
    benchmark.pedantic(run_all, rounds=1, iterations=1)
    wall_s = time.perf_counter() - t0

    report = ReportBuilder(
        "Fig. 4 -- Local NOOP Response Times (Delta, "
        f"{n_requests} requests/client)")
    report.add_table(
        ["clients/services", "RT(mean)", "communication", "service",
         "inference", "req/s"],
        _rows(strong), title="Strong scaling (16 clients)")
    report.add_table(
        ["clients/services", "RT(mean)", "communication", "service",
         "inference", "req/s"],
        _rows(weak), title="Weak scaling (clients == services)")
    report.add_text(
        "Paper shape: all components negligible vs. network latency; "
        "communication dominates; RT roughly flat in weak scaling.")
    bench = BenchResult(params={"n_requests": n_requests,
                                "strong_seed": 11, "weak_seed": 12})
    for series, grid, (clients, services) in (("strong", strong, (16, 8)),
                                              ("weak", weak, (16, 16))):
        row = grid[(clients, services)].row()
        for component in RT_COMPONENTS:
            # sim clock at a fixed n_requests: exact under the seed
            bench.record(f"{series}_{clients}x{services}_{component}",
                         row[component], unit="s", direction="lower",
                         scale_free=True)
    # host clock over the whole grid: recorded for the trend, not gated
    total = sum(clients * n_requests for clients, _ in [*strong, *weak])
    bench.record("requests_per_wall_s", total / wall_s, unit="req/s",
                 deterministic=False)
    # depends on the interpreter's object layout: ceiling-gated only, and
    # kept out of the report, whose text is the same on every interpreter
    per_request = request_bytes()
    bench.record("client_bytes_per_request", per_request, unit="B",
                 direction="lower", floor=CLIENT_BYTES_CEILING,
                 scale_free=True, deterministic=False)
    per_distinct = request_bytes(n_requests=250, model="llama-8b")
    bench.record("client_bytes_per_distinct_reply", per_distinct, unit="B",
                 direction="lower", floor=DISTINCT_BYTES_CEILING,
                 scale_free=True, deterministic=False)
    emit(report, bench=bench)

    # -- shape assertions ---------------------------------------------------------
    for result in [*strong.values(), *weak.values()]:
        assert result.metrics.dominant_component() == "communication"
        means = result.metrics.component_means()
        assert means["inference"] < means["communication"] / 10
        # local latency regime: RT well under a millisecond
        assert result.metrics.rt_stats.mean < 1e-3
    # weak scaling is flat: extremes within 50%
    weak_rts = [r.metrics.rt_stats.mean for r in weak.values()]
    assert max(weak_rts) < min(weak_rts) * 1.5
    # strong scaling: adding services relieves service-side queueing (the
    # NOOP backend is fast enough that throughput stays client-bound)
    strong_service = {s: r.metrics.component_means()["service"]
                      for (c, s), r in strong.items()}
    assert strong_service[16] < strong_service[1]
    strong_tp = {s: r.metrics.throughput(r.makespan_s)
                 for (c, s), r in strong.items()}
    assert strong_tp[16] > strong_tp[1] * 0.95  # not degraded
    assert per_request <= CLIENT_BYTES_CEILING
    assert per_distinct <= DISTINCT_BYTES_CEILING
