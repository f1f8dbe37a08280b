"""Workflow layer: campaign orchestration and the three LUCID use cases.

* :mod:`repro.workflows.campaign` -- the streaming campaign engine
  (dependency-driven dataflow DAGs, no stage barriers);
* :mod:`repro.workflows.cell_painting` -- use case II-A;
* :mod:`repro.workflows.signature_detection` -- use case II-B;
* :mod:`repro.workflows.uq` -- use case II-C;
* supporting substrates: imaging, VCF, VEP, pathways, dose-response, MLP,
  HPO, UQ methods, synthetic QA data.

Every use case is one graph, ``build_*_campaign`` (the streaming per-item
dataflow graph).  Its Table I pipeline, ``build_*_pipeline``, is derived
from it: ``graph.barriered(*_STAGES)`` chains one node per dependency level
(stage *k+1* depends on stage *k*, so each stage is a barrier) and runs the
same tasks.
"""

from .campaign import (
    CampaignGraph,
    CampaignRunner,
    NodeRunner,
    StageFailure,
    TaskNode,
    failed_tasks,
)
from .mlp import MLPClassifier, MLPConfig
from .hpo import (
    ChoiceParam,
    FloatParam,
    IntParam,
    RandomSampler,
    SearchSpace,
    Study,
    TpeSampler,
    Trial,
)
from .imaging import (
    DOSE_LEVELS_GY,
    augment,
    extract_features,
    generate_cell_image,
    generate_dataset,
)
from .vcf import Variant, generate_vcf, parse_vcf, transition_fraction, write_vcf
from .vep import AnnotatedVariant, GeneModel, VepAnnotator
from .pathways import (
    EnrichmentResult,
    PathwayDatabase,
    benjamini_hochberg,
    enrich,
)
from .dose_response import DoseResponseFit, fit_hill, fit_linear, hill
from .uq_methods import (
    BayesianLinearUQ,
    EnsembleUQ,
    UQMetrics,
    UQ_METHODS,
    create_uq_method,
    evaluate_probs,
)
from .generator_data import TOPICS, make_qa_dataset
from .cell_painting import (
    CellPaintingConfig,
    CellPaintingResult,
    build_cell_painting_campaign,
    build_cell_painting_pipeline,
)
from .signature_detection import (
    SignatureConfig,
    SignatureResult,
    build_signature_campaign,
    build_signature_pipeline,
)
from .uq import (
    UQConfig,
    UQResult,
    UQSummaryRow,
    build_uq_campaign,
    build_uq_pipeline,
)

__all__ = [
    "CampaignGraph",
    "CampaignRunner",
    "NodeRunner",
    "TaskNode",
    "failed_tasks",
    "StageFailure",
    "MLPClassifier",
    "MLPConfig",
    "ChoiceParam",
    "FloatParam",
    "IntParam",
    "RandomSampler",
    "SearchSpace",
    "Study",
    "TpeSampler",
    "Trial",
    "DOSE_LEVELS_GY",
    "augment",
    "extract_features",
    "generate_cell_image",
    "generate_dataset",
    "Variant",
    "generate_vcf",
    "parse_vcf",
    "transition_fraction",
    "write_vcf",
    "AnnotatedVariant",
    "GeneModel",
    "VepAnnotator",
    "EnrichmentResult",
    "PathwayDatabase",
    "benjamini_hochberg",
    "enrich",
    "DoseResponseFit",
    "fit_hill",
    "fit_linear",
    "hill",
    "BayesianLinearUQ",
    "EnsembleUQ",
    "UQMetrics",
    "UQ_METHODS",
    "create_uq_method",
    "evaluate_probs",
    "TOPICS",
    "make_qa_dataset",
    "CellPaintingConfig",
    "CellPaintingResult",
    "build_cell_painting_campaign",
    "build_cell_painting_pipeline",
    "SignatureConfig",
    "SignatureResult",
    "build_signature_campaign",
    "build_signature_pipeline",
    "UQConfig",
    "UQResult",
    "UQSummaryRow",
    "build_uq_campaign",
    "build_uq_pipeline",
]
