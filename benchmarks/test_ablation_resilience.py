"""Ablation: the resilience subsystem (injection, detection, recovery).

An iterative campaign (rounds of dependent task waves, the HPO/UQ shape)
runs under injected faults, sweeping node MTBF x recovery policy:

1. **fault-free**     -- the goodput baseline;
2. **no recovery**    -- node crashes kill tasks, the campaign aborts at
                         the first broken round (the seed's behaviour);
3. **retry**          -- bounded retries with backoff re-bind killed tasks
                         to surviving capacity; the campaign completes;
4. **restart**        -- pilot walltime expiry kills the whole campaign
                         mid-flight; a fresh session replays from scratch;
5. **checkpoint**     -- same kill, but per-round durable checkpoints let
                         the restarted campaign resume where it died.

Failures are *observed* through heartbeat leases: the reported detection
latencies come from the monitor's declarations joined against the
injector's ground-truth fault times, never from oracle knowledge.

Acceptance: checkpoint/restart retains >= 90% of the fault-free goodput
efficiency while the no-recovery baseline commits less than half of the
workload; detection latency is bounded below by the heartbeat cadence.
"""

import pytest

from repro import (
    FaultModel,
    PilotDescription,
    PilotManager,
    ResilienceConfig,
    RetryPolicy,
    Session,
    TaskDescription,
    TaskManager,
)
from repro.analytics import ReportBuilder, dist_stats, failure_metrics
from repro.observability import BenchResult
from repro.pilot.states import TaskState

#: campaign shape: ROUNDS dependent waves of TASKS_PER_ROUND tasks.
#: Fixed-size on purpose (the run takes ~1s of wall time): the injected
#: fault schedule is deterministic in sim time, so shrinking the campaign
#: with REPRO_BENCH_SCALE would shift where faults land relative to the
#: workload and invalidate the calibrated collapse/recovery contrasts.
ROUNDS = 8
TASKS_PER_ROUND = 16
TASK_DURATION_S = 60.0
TASK_CORES = 8
#: distinct useful work of the full campaign (core-seconds)
WORKLOAD_CORE_S = ROUNDS * TASKS_PER_ROUND * TASK_DURATION_S * TASK_CORES
#: fault-free campaign length: sequential rounds, ~63s per wave
CAMPAIGN_S = ROUNDS * 63.0
#: harsh / mild per-node MTBF (the campaign runs on 2 nodes)
MTBF_HARSH_S = 150.0
MTBF_MILD_S = 250.0
#: pilot walltime that expires mid-campaign for the restart study
KILL_WALLTIME_S = (ROUNDS // 2) * 63.0 + 50.0

HEARTBEAT_S = 5.0


def run_campaign(policy, node_mtbf_s=0.0, walltime_s=1e9, store=None,
                 seed=17):
    """One campaign session; returns its accounting.

    ``policy``: "none" (failures terminal, abort on first broken round),
    "retry" (bounded retries), "checkpoint" (retry + per-round durable
    checkpoints via *store*, resuming from whatever the store holds).
    """
    retry = None
    if policy in ("retry", "checkpoint"):
        retry = RetryPolicy(max_retries=3, backoff_base_s=2.0,
                            rebind_wait_s=30.0)
    faults = None
    if node_mtbf_s > 0:
        faults = FaultModel(node_mtbf_s=node_mtbf_s, node_mttr_s=120.0)
    config = ResilienceConfig(heartbeat_interval_s=HEARTBEAT_S,
                              retry=retry, faults=faults,
                              checkpoint_store=store)
    with Session(seed=seed, resilience_config=config) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(PilotDescription(
            resource="delta", nodes=2, runtime_s=walltime_s))
        tmgr.add_pilots(pilot)
        checkpoints = session.resilience.checkpoints
        key = "resilience-campaign"
        first_round = 0
        if policy == "checkpoint" and checkpoints.has(key):
            iteration, _ = checkpoints.latest(key)
            first_round = iteration + 1
        rounds_done = first_round
        for rnd in range(first_round, ROUNDS):
            tasks = tmgr.submit_tasks([
                TaskDescription(name=f"r{rnd}-t{i}", executable="x",
                                duration_s=TASK_DURATION_S,
                                cores_per_rank=TASK_CORES)
                for i in range(TASKS_PER_ROUND)])
            session.run(until=tmgr.wait_tasks(tasks))
            if any(t.state != TaskState.DONE for t in tasks):
                break  # a broken round ends the campaign (iterative dep)
            rounds_done += 1
            if policy == "checkpoint":
                proc = session.engine.process(
                    checkpoints.save(key, rnd, None, nbytes=1e9))
                session.run(until=proc)
        metrics = failure_metrics(session, tmgr.tasks)
        return {
            "makespan": session.now,
            "rounds_done": rounds_done,
            "first_round": first_round,
            "metrics": metrics,
            "committed_core_s": metrics.goodput_core_s,
            "wasted_core_s": metrics.wasted_core_s,
            "detections": ([] if session.resilience is None else
                           session.resilience.detection_latencies()),
        }


def restart_study(with_checkpoint, node_mtbf_s, seed=23):
    """Kill a campaign via pilot walltime expiry, then restart it.

    Returns combined accounting over both sessions: distinct useful work,
    total core-seconds spent (committed + replayed + wasted), and the
    detection latencies of the pilot loss.
    """
    policy = "checkpoint" if with_checkpoint else "retry"
    store = {} if with_checkpoint else None
    first = run_campaign(policy, node_mtbf_s=node_mtbf_s,
                         walltime_s=KILL_WALLTIME_S, store=store, seed=seed)
    second = run_campaign(policy, node_mtbf_s=node_mtbf_s,
                          walltime_s=1e9, store=store, seed=seed + 1)
    total_spent = (first["committed_core_s"] + first["wasted_core_s"]
                   + second["committed_core_s"] + second["wasted_core_s"])
    # committed work in rounds the restart replayed is not distinct output
    efficiency = WORKLOAD_CORE_S / total_spent if total_spent else 0.0
    return {
        "killed_after_rounds": first["rounds_done"],
        "resumed_from": second["first_round"],
        "rounds_done": second["rounds_done"],
        "total_spent_core_s": total_spent,
        "efficiency": efficiency,
        "detections": first["detections"] + second["detections"],
        "makespan": first["makespan"] + second["makespan"],
    }


@pytest.mark.benchmark(group="ablation-resilience")
def test_ablation_resilience(benchmark, emit):
    results = {}

    def run_all():
        results["fault-free"] = run_campaign("retry")
        for label, mtbf in (("harsh", MTBF_HARSH_S), ("mild", MTBF_MILD_S)):
            results[f"mtbf {label} none"] = run_campaign(
                "none", node_mtbf_s=mtbf)
            results[f"mtbf {label} retry"] = run_campaign(
                "retry", node_mtbf_s=mtbf)
        results["restart scratch"] = restart_study(False, 2 * CAMPAIGN_S)
        results["restart checkpoint"] = restart_study(True, 2 * CAMPAIGN_S)

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    base = results["fault-free"]
    base_goodput_rate = base["committed_core_s"] / base["makespan"]

    report = ReportBuilder(
        "Ablation -- resilience: MTBF-injected node crashes, heartbeat "
        "lease detection, retry / checkpoint-restart recovery "
        f"({ROUNDS}x{TASKS_PER_ROUND} tasks, 2 delta nodes)")

    rows = []
    for name in ("fault-free", "mtbf harsh none", "mtbf harsh retry",
                 "mtbf mild none", "mtbf mild retry"):
        r = results[name]
        m = r["metrics"]
        rows.append([
            name, f"{r['rounds_done']}/{ROUNDS}", f"{r['makespan']:.0f}",
            f"{r['committed_core_s'] / WORKLOAD_CORE_S * 100:.0f}%",
            f"{m.wasted_core_s / 3600:.2f}", m.failures_total,
            m.retries_granted])
    report.add_table(
        ["node-fault arm", "rounds", "makespan(s)", "committed",
         "wasted core-h", "failures", "retries"], rows)

    rows = []
    for name in ("restart scratch", "restart checkpoint"):
        r = results[name]
        rows.append([
            name, r["killed_after_rounds"], r["resumed_from"],
            f"{r['rounds_done']}/{ROUNDS}",
            f"{r['total_spent_core_s'] / 3600:.2f}",
            f"{r['efficiency'] * 100:.0f}%"])
    report.add_table(
        ["pilot-expiry arm", "killed after", "resumed from", "rounds",
         "spent core-h", "goodput efficiency"], rows)

    detections = (results["restart checkpoint"]["detections"]
                  + results["restart scratch"]["detections"])
    det = dist_stats(detections)
    report.add_text(
        f"Detection latency (heartbeat leases, {HEARTBEAT_S:.0f}s beats, "
        f"3 misses): {det} -- failures are observed via silence, never "
        "via oracle knowledge.")
    eff_ck = results["restart checkpoint"]["efficiency"]
    eff_sc = results["restart scratch"]["efficiency"]
    report.add_text(
        f"Checkpoint/restart keeps {eff_ck * 100:.0f}% goodput efficiency "
        f"after a mid-campaign pilot kill (scratch restart: "
        f"{eff_sc * 100:.0f}%); without recovery the campaign commits "
        f"{results['mtbf harsh none']['committed_core_s'] / WORKLOAD_CORE_S * 100:.0f}% "
        "of its workload before collapsing.")

    # fixed-size campaign (see ROUNDS comment above): scale-free metrics
    bench = BenchResult(params={"rounds": ROUNDS,
                                "tasks_per_round": TASKS_PER_ROUND,
                                "heartbeat_s": HEARTBEAT_S})
    bench.record("checkpoint_goodput_efficiency", eff_ck, floor=0.9,
                 scale_free=True)
    bench.record("scratch_goodput_efficiency", eff_sc, scale_free=True)
    bench.record(
        "no_recovery_committed_fraction",
        results["mtbf harsh none"]["committed_core_s"] / WORKLOAD_CORE_S,
        direction="lower", floor=0.5, scale_free=True)
    bench.record("fault_free_goodput_core_per_s", base_goodput_rate,
                 unit="core-s/s", scale_free=True)
    bench.record("detection_latency_min_s", det.min, unit="s",
                 floor=HEARTBEAT_S, scale_free=True)
    bench.record("detection_latency_max_s", det.max, unit="s",
                 direction="lower", floor=5 * HEARTBEAT_S, scale_free=True)
    emit(report, bench=bench)

    # -- acceptance ------------------------------------------------------------
    # fault-free baseline completes everything with zero waste
    assert base["rounds_done"] == ROUNDS
    assert base["wasted_core_s"] == 0.0

    # no-recovery collapses under node faults while retry completes the
    # same workload under the same fault schedule
    for label in ("harsh", "mild"):
        none_arm = results[f"mtbf {label} none"]
        retry_arm = results[f"mtbf {label} retry"]
        assert none_arm["rounds_done"] < ROUNDS
        assert none_arm["committed_core_s"] < \
            0.8 * retry_arm["committed_core_s"]
        assert retry_arm["rounds_done"] == ROUNDS
        assert retry_arm["metrics"].retries_granted > 0
    assert results["mtbf harsh none"]["committed_core_s"] < \
        0.5 * WORKLOAD_CORE_S

    # checkpoint/restart: >= 90% of fault-free goodput efficiency, while
    # the scratch restart pays the replay
    assert eff_ck >= 0.9
    assert eff_ck > eff_sc
    assert results["restart checkpoint"]["resumed_from"] > 0
    assert results["restart scratch"]["resumed_from"] == 0

    # detection latencies come from leases: bounded below by the beat
    # cadence, bounded above by the full lease window + one interval
    assert det.n >= 2
    assert det.min >= HEARTBEAT_S
    assert det.max <= 5 * HEARTBEAT_S
