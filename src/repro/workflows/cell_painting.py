"""The Cell Painting pipeline (use case II-A, Table I row 1).

Two stages, run *asynchronously and concurrently* exactly as the paper
describes: "Data preparation ... and model training ... operate
asynchronously while multiple models are trained concurrently, optimizing
hyperparameters":

1. **Data pre-processing & augmentation** (CPU, service-enabled) -- shard
   tasks synthesise dose-labelled cell images, apply the augmentation set
   (rotation/crop/flip/contrast) and extract morphological features.
2. **Model training with hyperparameter optimisation** (GPU,
   service-enabled) -- training "starts only when sufficient processed data
   are available": as soon as ``min_shards_to_train`` shards exist, rounds
   of concurrent HPO trials (TPE or random) train real MLP heads on the
   features harvested so far, folding in newly finished shards each round.

Everything computes for real; durations in virtual time follow the
measured wall time of each function task.

:func:`build_cell_painting_campaign` is the use case's one graph, a node
per stage, so its barriered form :func:`build_cell_painting_pipeline`
keeps both nodes as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..pilot.description import TaskDescription
from ..pilot.states import TaskState
from .campaign import CampaignGraph, NodeRunner, StageFailure, TaskNode
from .hpo import FloatParam, IntParam, SearchSpace, Study, TpeSampler
from .imaging import augment, extract_features, generate_dataset
from .mlp import MLPClassifier, MLPConfig

__all__ = ["CellPaintingConfig", "CellPaintingResult",
           "CELL_PAINTING_STAGES", "build_cell_painting_pipeline",
           "build_cell_painting_campaign", "prepare_shard", "run_trial",
           "HPO_SPACE"]

#: Table I row 1: the pipeline's stages, one per level of the campaign graph
CELL_PAINTING_STAGES = ("data-preprocessing-augmentation",
                        "training-hyperparameter-optimization")


@dataclass
class CellPaintingConfig:
    """Scale knobs for the pipeline (defaults are laptop-sized).

    The ``*_bytes`` knobs model the pipeline's data plane: the paper's
    Globus-managed reference dataset is 1.6 TB (``dataset_bytes=1.6e12`` at
    paper scale), sharded microscopy plates feed the preparation stage, and
    every HPO trial re-reads the harvested feature matrix.  They default to
    0 (no staging) so unit-scale runs stay instant; the data-locality
    benchmark and example turn them on.  With the data subsystem the shared
    dataset is staged *once* per platform (content-addressed dedup + warm
    cache) instead of once per task.
    """

    n_shards: int = 8
    images_per_shard: int = 10
    image_size: int = 24
    augmentations_per_image: int = 2
    min_shards_to_train: int = 3
    n_trials: int = 8
    concurrent_trials: int = 4
    holdout_fraction: float = 0.3
    seed: int = 0
    #: epochs given to each HPO trial's training run
    trial_epochs: int = 10
    #: shared reference dataset staged to every shard task (Globus, 1.6 TB
    #: at paper scale)
    dataset_bytes: float = 0.0
    #: per-shard raw plate data staged to its preparation task
    shard_bytes: float = 0.0
    #: harvested feature matrix staged to every HPO trial
    features_bytes: float = 0.0

    def validate(self) -> None:
        if self.n_shards < 1 or self.images_per_shard < 1:
            raise ValueError("need at least one shard and image")
        if min(self.n_trials, self.concurrent_trials,
               self.trial_epochs) < 1:
            raise ValueError(
                "n_trials, concurrent_trials and trial_epochs must be >= 1")
        if not 1 <= self.min_shards_to_train <= self.n_shards:
            raise ValueError("min_shards_to_train out of range")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError("holdout_fraction must be in (0, 1)")
        if min(self.dataset_bytes, self.shard_bytes,
               self.features_bytes) < 0:
            raise ValueError("staging byte sizes must be >= 0")

    def shard_staging(self, shard_index: int) -> List[Dict[str, Any]]:
        """Input staging directives for one preparation shard task."""
        staging: List[Dict[str, Any]] = []
        if self.dataset_bytes > 0:
            staging.append({"source": "cellpainting/reference-dataset",
                            "target": "dataset",
                            "size_bytes": self.dataset_bytes})
        if self.shard_bytes > 0:
            staging.append({"source": f"cellpainting/plate-{shard_index}",
                            "target": f"plate-{shard_index}",
                            "size_bytes": self.shard_bytes})
        return staging

    def trial_staging(self) -> List[Dict[str, Any]]:
        """Input staging directives for one HPO trial (same features every
        trial -- the warm-cache showcase)."""
        if self.features_bytes <= 0:
            return []
        return [{"source": "cellpainting/features", "target": "features",
                 "size_bytes": self.features_bytes}]


#: The paper's named hyperparameters: "learning rate, batch size, weight
#: decay, and dropout rate" (§II-A).
HPO_SPACE = SearchSpace([
    FloatParam("learning_rate", 1e-4, 3e-2, log=True),
    IntParam("batch_size", 8, 64),
    FloatParam("weight_decay", 1e-6, 1e-2, log=True),
    FloatParam("dropout", 0.0, 0.5),
])


def prepare_shard(shard_index: int,
                  config: CellPaintingConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Task payload: synthesise, augment and featurise one shard.

    Returns (features, labels); really computes.
    """
    rng = np.random.default_rng(config.seed * 10_000 + shard_index)
    images, labels = generate_dataset(
        n_per_dose=config.images_per_shard, size=config.image_size, rng=rng)
    feats: List[np.ndarray] = []
    labs: List[int] = []
    for image, label in zip(images, labels):
        feats.append(extract_features(image))
        labs.append(int(label))
        for _ in range(config.augmentations_per_image):
            feats.append(extract_features(augment(image, rng)))
            labs.append(int(label))
    return np.stack(feats), np.asarray(labs, dtype=int)


def run_trial(params: Dict[str, Any], data: Tuple[np.ndarray, np.ndarray],
              config: CellPaintingConfig, trial_seed: int) -> Dict[str, float]:
    """Task payload: train one candidate model, return validation error."""
    X, y = data
    rng = np.random.default_rng(trial_seed)
    n = X.shape[0]
    order = rng.permutation(n)
    n_val = max(1, int(config.holdout_fraction * n))
    val_idx, train_idx = order[:n_val], order[n_val:]
    # standardise on the training split only
    mu = X[train_idx].mean(axis=0)
    sd = X[train_idx].std(axis=0) + 1e-9
    Xn = (X - mu) / sd
    model = MLPClassifier(MLPConfig(
        hidden=48,
        learning_rate=float(params["learning_rate"]),
        weight_decay=float(params["weight_decay"]),
        dropout=float(params["dropout"]),
        batch_size=int(params["batch_size"]),
        epochs=config.trial_epochs,
        seed=trial_seed,
    ))
    model.fit(Xn[train_idx], y[train_idx])
    val_acc = model.score(Xn[val_idx], y[val_idx])
    return {"val_error": 1.0 - val_acc, "val_accuracy": val_acc}


@dataclass
class CellPaintingResult:
    """Summary the pipeline leaves in the context under ``"result"``."""

    best_val_accuracy: float
    best_params: Dict[str, Any]
    n_trials: int
    n_shards_used_first_round: int
    n_shards_total: int
    overlap_observed: bool  # training began before all shards finished


def build_cell_painting_campaign(
        config: Optional[CellPaintingConfig] = None) -> CampaignGraph:
    """The use case's graph: two ``run=`` nodes, training after data.

    Cell Painting streams *internally*: the data node returns as soon as
    ``min_shards_to_train`` shards exist, and the HPO node folds later
    shards in round by round -- its "barrier" is a threshold, not a full
    stage wait.  The graph's value as a campaign is *composition*: it can
    run inside one campaign alongside other workflow graphs, sharing the
    allocation and the backpressure window.
    """
    config = config or CellPaintingConfig()
    config.validate()

    def run_data_stage(runner: NodeRunner, context: Dict[str, Any]):
        """Submit shard tasks; wait only for the training threshold."""
        descriptions = [
            TaskDescription(
                name=f"cp-shard-{i}",
                function=prepare_shard, fn_args=(i, config),
                cores_per_rank=1,
                input_staging=config.shard_staging(i))
            for i in range(config.n_shards)]
        tasks = runner.tmgr.submit_tasks(descriptions)
        context["shard_tasks"] = tasks
        ready = [t.completed for t in tasks[:config.min_shards_to_train]]
        yield runner.session.engine.all_of(ready)
        failed = [t for t in tasks[:config.min_shards_to_train]
                  if t.is_final and t.state != TaskState.DONE]
        if failed:
            raise StageFailure(f"shard task failed: {failed[0].exception}")

    def harvest(context: Dict[str, Any]) -> Tuple[np.ndarray, np.ndarray, int]:
        done = [t for t in context["shard_tasks"]
                if t.state == TaskState.DONE]
        feats = np.vstack([t.result[0] for t in done])
        labels = np.concatenate([t.result[1] for t in done])
        return feats, labels, len(done)

    def run_training_stage(runner: NodeRunner, context: Dict[str, Any]):
        """Concurrent HPO rounds over the data harvested so far."""
        study = Study(HPO_SPACE, sampler=TpeSampler(seed=config.seed),
                      direction="minimize")
        context["study"] = study
        trials_done = 0

        _, _, first_round_shards = harvest(context)
        shards_at_start = first_round_shards

        while trials_done < config.n_trials:
            X, y, _n_done = harvest(context)
            batch = min(config.concurrent_trials,
                        config.n_trials - trials_done)
            asks = [study.ask() for _ in range(batch)]
            descriptions = [
                TaskDescription(
                    name=f"cp-trial-{trial.number}",
                    function=run_trial,
                    fn_args=(trial.params, (X, y), config,
                             config.seed * 777 + trial.number),
                    cores_per_rank=1, gpus_per_rank=1,
                    input_staging=config.trial_staging())
                for trial in asks]
            tasks = yield from runner.submit_and_wait(
                descriptions, failure_tolerance=1.0)
            for trial, task in zip(asks, tasks):
                if task.state == TaskState.DONE:
                    study.tell(trial, task.result["val_error"])
                else:
                    study.tell(trial, None, failed=True)
            trials_done += batch

        # Drain remaining shard tasks so the result can report overlap.
        yield runner.tmgr.wait_tasks(context["shard_tasks"])
        done_total = sum(t.state == TaskState.DONE
                         for t in context["shard_tasks"])
        best = study.best_trial
        context["result"] = CellPaintingResult(
            best_val_accuracy=1.0 - best.value,
            best_params=dict(best.params),
            n_trials=len([t for t in study.trials if t.is_complete]),
            n_shards_used_first_round=shards_at_start,
            n_shards_total=done_total,
            overlap_observed=shards_at_start < done_total,
        )

    return CampaignGraph(name="cell-painting", nodes=[
        TaskNode(name="data-preprocessing-augmentation",
                 resource_type="CPU", as_service=True,
                 run=run_data_stage),
        TaskNode(name="training-hyperparameter-optimization",
                 deps=("data-preprocessing-augmentation",),
                 resource_type="GPU", as_service=True,
                 run=run_training_stage),
    ])


def build_cell_painting_pipeline(
        config: Optional[CellPaintingConfig] = None) -> CampaignGraph:
    """The two-stage pipeline with data/training overlap: the campaign's
    two nodes are already one per stage, so barriering keeps them."""
    return build_cell_painting_campaign(config).barriered(
        CELL_PAINTING_STAGES)
