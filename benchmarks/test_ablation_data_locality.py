"""Ablation: the data-locality subsystem (content store, caches, affinity).

The paper's workloads are *data-driven*: the Cell Painting pipeline moves a
1.6 TB Globus-managed dataset and its HPO stage re-reads the same features
every trial.  The seed runtime re-paid the full WAN transfer for every
directive.  This ablation measures what each data-plane layer buys on an
iterative HPO-style workload (rounds of training tasks, one shared dataset
plus per-task shards, two platforms):

1. **cold**     -- caching/dedup off (the seed's behaviour);
2. **warm**     -- content-addressed platform caches: the dataset crosses
                   each WAN link once, repeats are free (the acceptance
                   target is >= 2x fewer staged bytes than cold);
3. **affinity** -- plus data-aware placement: tasks follow their bytes;
4. **bounded**  -- caches too small for the full working set, where
                   round-robin placement thrashes the LRU but affinity
                   keeps each shard pinned to one platform;
5. the real **Cell Painting pipeline** with paper-scale staging attached
   (1.6 TB reference dataset, per-plate shards, per-trial features).
"""

import pytest

from repro import (
    DataConfig,
    PilotDescription,
    PilotManager,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.analytics import ReportBuilder, data_metrics
from repro.observability import BenchResult
from repro.workflows import (
    CampaignRunner,
    CellPaintingConfig,
    build_cell_painting_pipeline,
)

from conftest import bench_scale

DATASET_BYTES = 1.6e12     # the Globus-managed Cell Painting dataset
SHARD_BYTES = 50e9
#: REPRO_BENCH_SCALE divides the round count (2 rounds minimum: one cold,
#: at least one warm)
ROUNDS = max(2, bench_scale(4))
#: fixed and odd on purpose: an even count lets plain round-robin preserve
#: task->platform parity across rounds and fake perfect shard locality
TASKS_PER_ROUND = 9
#: bounded arms: room for the dataset plus ~5 of the 9 shards per platform
#: (half-shard slack so exact-fit float accumulation cannot evict spuriously)
BOUNDED_CAPACITY = DATASET_BYTES + 5.5 * SHARD_BYTES


def run_iterative(config: DataConfig, seed: int = 11):
    """Rounds of training tasks over a shared dataset + per-task shards."""
    with Session(seed=seed, data_config=config) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        tmgr.add_pilots(pmgr.submit_pilots([
            PilotDescription(resource="delta", nodes=2, runtime_s=1e9),
            PilotDescription(resource="frontier", nodes=2, runtime_s=1e9),
        ]))
        for _round in range(ROUNDS):
            tasks = tmgr.submit_tasks([
                TaskDescription(
                    name=f"train-{i}",
                    executable="train", duration_s=30.0,
                    input_staging=[
                        {"source": "hpo/reference-dataset",
                         "size_bytes": DATASET_BYTES},
                        {"source": f"hpo/shard-{i}",
                         "size_bytes": SHARD_BYTES},
                    ])
                for i in range(TASKS_PER_ROUND)])
            session.run(until=tmgr.wait_tasks(tasks))
            assert all(t.state == "DONE" for t in tasks)
        return {
            "makespan": session.now,
            "metrics": data_metrics(tmgr.data_manager),
            "affinity": tmgr.affinity_placements,
            "evictions": session.data.evictions,
        }


def run_cell_painting(cache_enabled: bool, seed: int = 13):
    """The real pipeline, tiny compute scale but paper-scale staging."""
    config = DataConfig(cache_enabled=cache_enabled,
                        dedup_inflight=cache_enabled)
    with Session(seed=seed, data_config=config) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        runner = CampaignRunner(session, tmgr)
        pipeline = build_cell_painting_pipeline(CellPaintingConfig(
            n_shards=4, images_per_shard=4, n_trials=4, concurrent_trials=2,
            min_shards_to_train=2,
            dataset_bytes=DATASET_BYTES, shard_bytes=SHARD_BYTES,
            features_bytes=25e9))
        proc = session.engine.process(runner.run_campaign(pipeline))
        context = session.run(until=proc)
        assert context["result"].n_trials > 0
        return {
            "makespan": session.now,
            "metrics": data_metrics(tmgr.data_manager),
        }


@pytest.mark.benchmark(group="ablation-data-locality")
def test_ablation_data_locality(benchmark, emit):
    results = {}

    def run_all():
        results["cold"] = run_iterative(DataConfig(
            cache_enabled=False, dedup_inflight=False,
            placement="round_robin"))
        results["warm rr"] = run_iterative(DataConfig(
            placement="round_robin"))
        results["warm affinity"] = run_iterative(DataConfig(
            placement="data_affinity"))
        results["bounded rr"] = run_iterative(DataConfig(
            placement="round_robin",
            cache_capacity_bytes=BOUNDED_CAPACITY))
        results["bounded affinity"] = run_iterative(DataConfig(
            placement="data_affinity",
            cache_capacity_bytes=BOUNDED_CAPACITY))
        results["cell painting cold"] = run_cell_painting(False)
        results["cell painting warm"] = run_cell_painting(True)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report = ReportBuilder(
        "Ablation -- data locality: content-addressed store, platform "
        "caches, contention-aware transfers, data-aware placement")

    rows = []
    for name in ("cold", "warm rr", "warm affinity", "bounded rr",
                 "bounded affinity"):
        r = results[name]
        m = r["metrics"]
        rows.append([
            name, f"{r['makespan']:.0f}", f"{m.bytes_moved / 1e12:.2f}",
            f"{m.bytes_saved / 1e12:.2f}",
            f"{m.hit_rate * 100:.0f}%" if m.staged_requests else "-",
            r["affinity"], r["evictions"]])
    report.add_table(
        [f"iterative HPO ({ROUNDS}x{TASKS_PER_ROUND} tasks, 2 platforms)",
         "makespan(s)", "moved TB", "saved TB", "hit rate", "affinity",
         "evictions"], rows)

    rows = []
    for name in ("cell painting cold", "cell painting warm"):
        m = results[name]["metrics"]
        rows.append([name, f"{m.bytes_moved / 1e12:.2f}",
                     f"{m.bytes_saved / 1e12:.2f}",
                     f"{m.hit_rate * 100:.0f}%" if m.staged_requests else "-"])
    report.add_table(
        ["cell painting (1.6 TB dataset + shards + features)",
         "moved TB", "saved TB", "hit rate"], rows)

    cold_m = results["cold"]["metrics"]
    warm_m = results["warm rr"]["metrics"]
    report.add_text(
        f"Warm caches cut staged bytes "
        f"{cold_m.bytes_moved / warm_m.bytes_moved:.1f}x and makespan "
        f"{results['cold']['makespan'] / results['warm rr']['makespan']:.1f}x "
        "on the iterative workload; under bounded caches round-robin "
        "placement thrashes the LRU while data affinity keeps each shard "
        "resident on one platform.")

    cp_cold = results["cell painting cold"]["metrics"]
    cp_warm = results["cell painting warm"]["metrics"]
    bench = BenchResult(params={"rounds": ROUNDS,
                                "tasks_per_round": TASKS_PER_ROUND})
    bench.record("cold_bytes_moved_tb", cold_m.bytes_moved / 1e12,
                 unit="TB", direction="lower")
    bench.record("warm_bytes_moved_tb", warm_m.bytes_moved / 1e12,
                 unit="TB", direction="lower")
    bench.record("cold_over_warm_bytes",
                 cold_m.bytes_moved / warm_m.bytes_moved, unit="x",
                 floor=2.0, scale_free=True)
    bench.record("warm_hit_rate", warm_m.hit_rate)
    bench.record("bounded_affinity_evictions",
                 float(results["bounded affinity"]["evictions"]),
                 direction="lower")
    bench.record("cell_painting_cold_over_warm_bytes",
                 cp_cold.bytes_moved / cp_warm.bytes_moved, unit="x",
                 floor=2.0, scale_free=True)
    emit(report, bench=bench)

    # -- acceptance ------------------------------------------------------------
    # warm cache: >= 2x fewer staged bytes than the no-cache baseline
    assert cold_m.bytes_moved >= 2.0 * warm_m.bytes_moved
    assert results["cold"]["makespan"] > results["warm rr"]["makespan"]

    # affinity never stages more than round-robin, and actually engaged
    assert (results["warm affinity"]["metrics"].bytes_moved
            <= warm_m.bytes_moved)
    assert results["warm affinity"]["affinity"] > 0

    # bounded caches: round-robin thrashes, affinity stays resident
    assert (results["bounded affinity"]["metrics"].bytes_moved
            < results["bounded rr"]["metrics"].bytes_moved)
    assert (results["bounded affinity"]["evictions"]
            <= results["bounded rr"]["evictions"])

    # the real pipeline: dataset/features staged once, not once per task
    assert cp_cold.bytes_moved >= 2.0 * cp_warm.bytes_moved
