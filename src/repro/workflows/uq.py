"""The Uncertainty Quantification pipeline (use case II-C, Table I row 3).

Three stages mirroring §II-C:

1. **Data preparation** (CPU, service-enabled) -- synthesise the QA corpus
   once, then derive *per-LLM feature representations* (each base model maps
   text to features through its own projection, with model-specific
   representation noise -- planting the "some models are better" effect the
   outer comparison level should expose).
2. **UQ methods with three-level parallelism** (GPU, not a service) -- the
   paper's hierarchy, run with maximal task concurrency: *models* (outer) x
   *seeds* (middle) x *UQ methods* (inner); every cell is one runtime task
   that really fits and evaluates the method.
3. **Post-processing** (GPU, service-enabled) -- aggregate metrics across
   seeds into the method/model comparison summary.

:func:`build_uq_campaign` is the use case's one graph: it streams each
model's cells as soon as its features land.  :func:`build_uq_pipeline` is
that graph with the three stages as barriers (:meth:`CampaignGraph.barriered
<repro.workflows.campaign.CampaignGraph.barriered>`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..pilot.description import TaskDescription
from .campaign import CampaignGraph, TaskNode
from .generator_data import make_qa_dataset
from .uq_methods import UQMetrics, UQ_METHODS, create_uq_method, evaluate_probs

__all__ = ["UQConfig", "UQCellResult", "UQSummaryRow", "UQResult",
           "UQ_STAGES", "build_uq_pipeline", "build_uq_campaign",
           "featurize", "run_uq_cell"]

#: Table I row 3: the pipeline's stages, one per level of the campaign graph
UQ_STAGES = ("data-preparation", "uq-methods-three-level",
             "post-processing")


@dataclass
class UQConfig:
    """Grid and dataset sizing (defaults are laptop-sized)."""

    models: Tuple[str, ...] = ("llama", "mistral")
    methods: Tuple[str, ...] = UQ_METHODS
    seeds: Tuple[int, ...] = (0, 1, 2)
    n_train: int = 200
    n_test: int = 100
    n_classes: int = 3
    latent_dim: int = 12
    feature_dim: int = 20
    seed: int = 0

    def validate(self) -> None:
        if not self.models or not self.methods or not self.seeds:
            raise ValueError("models, methods and seeds must be non-empty")
        for axis in ("models", "methods", "seeds"):
            values = getattr(self, axis)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(f"duplicate {axis}: {repeated}")
        if self.n_train < 20 or self.n_test < 10:
            raise ValueError("dataset too small")
        if self.n_classes < 2:
            raise ValueError("need >= 2 classes")

    @property
    def n_cells(self) -> int:
        return len(self.models) * len(self.methods) * len(self.seeds)


#: How noisy each base model's representation is (planted quality ordering:
#: llama > mistral > anything unknown).
MODEL_NOISE = {"llama": 0.6, "mistral": 1.0}
DEFAULT_MODEL_NOISE = 1.4


def _model_projection(model: str, latent_dim: int,
                      feature_dim: int) -> np.ndarray:
    """Deterministic per-model projection matrix (the 'representation')."""
    digest = hashlib.sha256(f"model:{model}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(digest[:8], "little"))
    return rng.normal(0, 1.0 / np.sqrt(latent_dim),
                      size=(latent_dim, feature_dim))


def featurize(model: str, latents: np.ndarray, rng,
              feature_dim: int) -> np.ndarray:
    """Per-model features: projected latents + model-specific noise."""
    projection = _model_projection(model, latents.shape[1], feature_dim)
    noise_scale = MODEL_NOISE.get(model, DEFAULT_MODEL_NOISE)
    return latents @ projection + rng.normal(
        0, noise_scale, size=(latents.shape[0], feature_dim))


def prepare_model_data(model: str, config: UQConfig) -> Dict[str, np.ndarray]:
    """Task payload for stage 1: build (train, test) features for a model."""
    dataset = make_qa_dataset(
        n_samples=config.n_train + config.n_test,
        n_classes=config.n_classes, latent_dim=config.latent_dim,
        seed=config.seed)
    digest = hashlib.sha256(f"noise:{model}".encode()).digest()
    rng = np.random.default_rng(
        config.seed * 99 + int.from_bytes(digest[:2], "little"))
    features = featurize(model, dataset["latents"], rng, config.feature_dim)
    n_train = config.n_train
    return {
        "X_train": features[:n_train],
        "y_train": dataset["labels"][:n_train],
        "X_test": features[n_train:],
        "y_test": dataset["labels"][n_train:],
    }


@dataclass
class UQCellResult:
    """One (model, method, seed) grid cell's metrics."""

    model: str
    method: str
    seed: int
    metrics: UQMetrics


def run_uq_cell(model: str, method: str, seed: int,
                data: Dict[str, np.ndarray]) -> UQCellResult:
    """Task payload for stage 2: fit one UQ method and evaluate it."""
    uq = create_uq_method(method, seed=seed)
    uq.fit(data["X_train"], data["y_train"])
    probs = uq.predict_proba(data["X_test"])
    metrics = evaluate_probs(probs, data["y_test"])
    return UQCellResult(model=model, method=method, seed=seed,
                        metrics=metrics)


@dataclass
class UQSummaryRow:
    """Aggregated (model, method) comparison row."""

    model: str
    method: str
    n_seeds: int
    accuracy_mean: float
    accuracy_std: float
    nll_mean: float
    ece_mean: float
    brier_mean: float


@dataclass
class UQResult:
    """Pipeline summary (context key ``"result"``)."""

    cells: List[UQCellResult]
    summary: List[UQSummaryRow]

    def best_method_for(self, model: str, metric: str = "ece_mean") -> str:
        rows = [r for r in self.summary if r.model == model]
        if not rows:
            raise KeyError(f"no rows for model {model!r}")
        return min(rows, key=lambda r: getattr(r, metric)).method


def build_uq_pipeline(config: Optional[UQConfig] = None) -> CampaignGraph:
    """The three-stage UQ pipeline: the campaign with a barrier after each
    stage, so each stage's whole bag completes before the next one builds."""
    return build_uq_campaign(config).barriered(UQ_STAGES)


def build_uq_campaign(config: Optional[UQConfig] = None) -> CampaignGraph:
    """The UQ use case as one streaming dataflow graph.

    Each base model owns an independent dataflow subtree: its feature
    preparation node feeds that model's (seed x method) grid-cell nodes,
    so llama's UQ fits start the moment llama's features land even while
    mistral's preparation is still running -- the three-level parallelism
    of §II-C without the stage barrier between levels.  ``aggregate``
    depends on every cell (the comparison summary needs the full grid).
    """
    config = config or UQConfig()
    config.validate()
    nodes: List[TaskNode] = []
    grid = [(model, seed, method)
            for model in config.models
            for seed in config.seeds
            for method in config.methods]

    def make_data_node(model: str) -> TaskNode:
        def build(context: Dict[str, Any]) -> List[TaskDescription]:
            return [TaskDescription(
                name=f"uq-data-{model}", function=prepare_model_data,
                fn_args=(model, config), cores_per_rank=1)]

        def collect(context: Dict[str, Any], tasks) -> None:
            context.setdefault("data", {})[model] = tasks[0].result

        return TaskNode(name=f"data-{model}", resource_type="CPU",
                        as_service=True, build=build, collect=collect)

    def make_cell_node(model: str, seed: int, method: str) -> TaskNode:
        key = (model, method, seed)

        def build(context: Dict[str, Any]) -> List[TaskDescription]:
            return [TaskDescription(
                name=f"uq-{model}-{method}-s{seed}", function=run_uq_cell,
                fn_args=(model, method, seed, context["data"][model]),
                cores_per_rank=1, gpus_per_rank=1)]

        def collect(context: Dict[str, Any], tasks) -> None:
            context.setdefault("cell_results", {})[key] = tasks[0].result

        return TaskNode(name=f"cell-{model}-{method}-s{seed}",
                        deps=(f"data-{model}",), resource_type="GPU",
                        build=build, collect=collect)

    for model in config.models:
        nodes.append(make_data_node(model))
    for model, seed, method in grid:
        nodes.append(make_cell_node(model, seed, method))

    def ordered_cells(context: Dict[str, Any]) -> List[UQCellResult]:
        results = context["cell_results"]
        return [results[(model, method, seed)]
                for model, seed, method in grid
                if (model, method, seed) in results]

    def build_aggregate(context: Dict[str, Any]) -> List[TaskDescription]:
        context["cells"] = ordered_cells(context)
        return [TaskDescription(
            name="uq-aggregate", function=aggregate_cells,
            fn_args=(context["cells"],), cores_per_rank=1, gpus_per_rank=1)]

    def collect_aggregate(context: Dict[str, Any], tasks) -> None:
        (task,) = tasks
        context["result"] = UQResult(cells=context["cells"],
                                     summary=task.result)

    nodes.append(TaskNode(
        name="aggregate",
        deps=tuple(f"cell-{model}-{method}-s{seed}"
                   for model, seed, method in grid),
        resource_type="GPU", as_service=True, build=build_aggregate,
        collect=collect_aggregate))
    return CampaignGraph(name="uncertainty-quantification", nodes=nodes)


def aggregate_cells(cells: List[UQCellResult]) -> List[UQSummaryRow]:
    """Task payload for stage 3: mean/std over seeds per (model, method)."""
    groups: Dict[Tuple[str, str], List[UQCellResult]] = {}
    for cell in cells:
        groups.setdefault((cell.model, cell.method), []).append(cell)
    rows: List[UQSummaryRow] = []
    for (model, method), members in sorted(groups.items()):
        acc = np.array([m.metrics.accuracy for m in members])
        nll = np.array([m.metrics.nll for m in members])
        ece = np.array([m.metrics.ece for m in members])
        brier = np.array([m.metrics.brier for m in members])
        rows.append(UQSummaryRow(
            model=model, method=method, n_seeds=len(members),
            accuracy_mean=float(acc.mean()), accuracy_std=float(acc.std()),
            nll_mean=float(nll.mean()), ece_mean=float(ece.mean()),
            brier_mean=float(brier.mean())))
    return rows
