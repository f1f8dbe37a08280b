#!/usr/bin/env python3
"""Cell Painting pipeline (use case II-A): dose classification with HPO.

Synthesises dose-labelled cell-painting imagery, runs the two-stage
pipeline -- CPU data-prep shards overlapping with GPU HPO training trials
-- and reports the hyperparameter search.  Everything actually computes
(image synthesis, augmentation, feature extraction, MLP training).

Run:  python examples/cell_painting.py
"""

from repro import PilotDescription, PilotManager, Session, TaskManager
from repro.analytics import ReportBuilder
from repro.workflows import (
    CampaignRunner,
    CellPaintingConfig,
    build_cell_painting_pipeline,
)


def main() -> None:
    config = CellPaintingConfig(
        n_shards=10, images_per_shard=10, image_size=28,
        augmentations_per_image=2, min_shards_to_train=4,
        n_trials=12, concurrent_trials=4, sampler="tpe", seed=3,
        trial_epochs=15)

    with Session(seed=3) as session:
        pmgr = PilotManager(session)
        tmgr = TaskManager(session)
        (pilot,) = pmgr.submit_pilots(
            PilotDescription(resource="delta", nodes=2, runtime_s=1e7))
        tmgr.add_pilots(pilot)
        runner = CampaignRunner(session, tmgr)

        pipeline = build_cell_painting_pipeline(config)
        proc = session.engine.process(runner.run_campaign(pipeline))
        context = session.run(until=proc)

    result = context["result"]
    study = context["study"]

    report = ReportBuilder("Cell Painting -- dose-level classification "
                           "with hyperparameter optimisation")
    rows = []
    for trial in study.trials:
        if not trial.is_complete:
            continue
        rows.append([
            trial.number,
            f"{trial.params['learning_rate']:.2e}",
            trial.params["batch_size"],
            f"{trial.params['weight_decay']:.1e}",
            f"{trial.params['dropout']:.2f}",
            f"{1.0 - trial.value:.3f}",
        ])
    report.add_table(
        ["trial", "learning_rate", "batch", "weight_decay", "dropout",
         "val_accuracy"], rows, title="HPO trials (TPE sampler)")
    report.add_kv({
        "best validation accuracy": f"{result.best_val_accuracy:.3f}",
        "shards ready when training started":
            f"{result.n_shards_used_first_round}/{result.n_shards_total}",
        "data/training overlap observed": str(result.overlap_observed),
        "completed trials": str(result.n_trials),
    }, title="Summary:")
    report.print()


if __name__ == "__main__":
    main()
