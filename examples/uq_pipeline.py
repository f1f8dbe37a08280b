#!/usr/bin/env python3
"""Uncertainty Quantification pipeline (use case II-C).

Three-level hierarchy run with maximal task concurrency: base models
(llama, mistral) x random seeds x UQ methods (Bayesian-LoRA-like,
LoRA-ensemble-like), each cell really fitting and evaluating its method;
post-processing aggregates the comparison.

Run:  python examples/uq_pipeline.py
"""

from repro import PilotDescription, PilotManager, Session, TaskManager
from repro.analytics import ReportBuilder
from repro.workflows import CampaignRunner, UQConfig, build_uq_pipeline


def main() -> None:
    config = UQConfig(models=("llama", "mistral"),
                      seeds=(0, 1, 2, 3), n_train=240, n_test=120, seed=5)

    with Session(seed=5) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=4, runtime_s=1e7))
        tmgr.add_pilots(pilot)
        runner = CampaignRunner(session, tmgr)

        proc = session.engine.process(
            runner.run_campaign(build_uq_pipeline(config)))
        context = session.run(until=proc)

    result = context["result"]
    report = ReportBuilder("Uncertainty Quantification -- method/model "
                           "comparison")
    rows = [[row.model, row.method, row.n_seeds,
             f"{row.accuracy_mean:.3f}±{row.accuracy_std:.3f}",
             f"{row.nll_mean:.3f}", f"{row.ece_mean:.3f}",
             f"{row.brier_mean:.3f}"]
            for row in result.summary]
    report.add_table(
        ["model", "UQ method", "seeds", "accuracy", "NLL", "ECE", "Brier"],
        rows, title=f"Aggregated over {len(config.seeds)} seeds "
                    f"({config.n_cells} grid cells, all run as "
                    "concurrent tasks)")
    report.add_kv({
        "best-calibrated method (llama)":
            result.best_method_for("llama", "ece_mean"),
        "best-calibrated method (mistral)":
            result.best_method_for("mistral", "ece_mean"),
    }, title="Conclusions:")
    report.print()


if __name__ == "__main__":
    main()
