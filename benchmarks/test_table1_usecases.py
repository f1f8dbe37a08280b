"""Table I: use cases -- pipeline stages, resource types, service enablement.

Runs all three LUCID pipelines end-to-end on the runtime (real computation
in function tasks, LLM stage through a served model) and prints the Table-I
matrix from the pipeline definitions, annotated with measured per-stage
durations and the scientific outcomes each pipeline recovered.
"""

import pytest

from repro import (
    PilotDescription,
    PilotManager,
    ServiceDescription,
    ServiceManager,
    Session,
    TaskManager,
)
from repro.analytics import ReportBuilder
from repro.workflows import (
    CampaignRunner,
    CellPaintingConfig,
    SignatureConfig,
    UQConfig,
    build_cell_painting_pipeline,
    build_signature_pipeline,
    build_uq_pipeline,
)


def run_pipelines():
    """Execute the three pipelines in one session; return (rows, outcomes)."""
    with Session(seed=13) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        smgr = ServiceManager(session, registry_platform="delta")
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e9))
        tmgr.add_pilots(pilot)
        runner = CampaignRunner(session, tmgr)

        # LLM service for the signature pipeline's stage 3.
        (llm,) = smgr.start_services(
            ServiceDescription(model="llama-8b", startup_timeout_s=1e6),
            pilot)
        session.run(until=llm.ready)

        pipelines = [
            build_cell_painting_pipeline(CellPaintingConfig(
                n_shards=6, images_per_shard=6, n_trials=6,
                concurrent_trials=3)),
            build_signature_pipeline(SignatureConfig(n_samples=15),
                                     llm_targets=[llm.address]),
            build_uq_pipeline(UQConfig(seeds=(0, 1))),
        ]
        contexts = []
        for pipeline in pipelines:
            proc = session.engine.process(runner.run_campaign(pipeline))
            contexts.append(session.run(until=proc))

        rows = []
        campaigns = session.profiler.uids_with_event("campaign_start")
        for campaign, pipeline in zip(campaigns, pipelines):
            for entry in pipeline.table_rows():
                duration = session.profiler.duration(
                    f"{campaign}.{entry['stage']}", "node_start", "node_stop")
                rows.append([
                    entry["pipeline"], entry["stage"],
                    entry["resource_type"],
                    "Yes" if entry["as_service"] else "No",
                    duration if duration is not None else float("nan"),
                ])
        outcomes = {
            "cell-painting best val accuracy":
                f"{contexts[0]['result'].best_val_accuracy:.3f}",
            "cell-painting data/training overlap":
                str(contexts[0]["result"].overlap_observed),
            "signature dose-response slope":
                f"{contexts[1]['result'].linear_fit.params['slope']:.3f} "
                f"(p={contexts[1]['result'].linear_fit.p_value:.2e})",
            "signature pathway recall":
                f"{contexts[1]['result'].recovery_recall:.2f}",
            "signature LLM summaries":
                str(len(contexts[1]["result"].llm_summaries)),
            "uq best-calibrated method (llama)":
                contexts[2]["result"].best_method_for("llama"),
        }
        return rows, outcomes, contexts


@pytest.mark.benchmark(group="table1")
def test_table1_use_cases(benchmark, emit):
    out = {}

    def run():
        out["rows"], out["outcomes"], out["contexts"] = run_pipelines()

    benchmark.pedantic(run, rounds=1, iterations=1)

    report = ReportBuilder("Table I -- Use cases: pipelines, stages, "
                           "resources and service enablement")
    report.add_table(
        ["Pipeline", "Stage", "Resource", "As Service", "measured duration"],
        out["rows"])
    report.add_kv(out["outcomes"], title="Scientific outcomes (planted "
                  "effects recovered):")
    emit(report)

    # Table I structure matches the paper.
    matrix = {(r[0], r[2], r[3]) for r in out["rows"]}
    assert ("cell-painting", "CPU", "Yes") in matrix
    assert ("cell-painting", "GPU", "Yes") in matrix
    assert ("signature-detection", "CPU", "No") in matrix
    assert ("signature-detection", "GPU", "Yes") in matrix
    assert ("uncertainty-quantification", "GPU", "No") in matrix
    assert len(out["rows"]) == 8  # 2 + 3 + 3 stages

    # pipelines produced their scientific results
    cp = out["contexts"][0]["result"]
    sig = out["contexts"][1]["result"]
    uq = out["contexts"][2]["result"]
    assert cp.best_val_accuracy > 0.3         # above 4-class chance
    assert sig.linear_fit.responsive          # dose effect recovered
    assert len(sig.llm_summaries) == 1        # LLM service was used
    assert len(uq.summary) == 4               # 2 models x 2 methods
