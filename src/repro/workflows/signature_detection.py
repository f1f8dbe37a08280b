"""The Signature Detection pipeline (use case II-B, Table I row 2).

Three stages over ``n_samples`` irradiated samples:

1. **Data preparation** (CPU, service-enabled) -- per-sample tasks generate
   the sample's VCF (with a planted dose-dependent C>T signature), round-trip
   it through the VCF text format, and annotate variants with the VEP-like
   annotator, producing gene burdens.
2. **Mutation detection analysis** (CPU, not a service) -- per-sample
   pathway enrichment against the synthetic KEGG/GO-like database
   (hypergeometric + BH-FDR).
3. **LLM-based signature comparison** (GPU, service-enabled) -- dose-response
   fits on the signature statistic, plus (when service endpoints are
   supplied) prompts to a served LLM summarising the findings -- the
   "mixed workload of CPU- and GPU-intensive tasks" the paper anticipates.

:func:`build_signature_campaign` is the use case's one graph: each sample
streams through its own preparation and enrichment.
:func:`build_signature_pipeline` is that graph with the three stages as
barriers (:meth:`CampaignGraph.barriered
<repro.workflows.campaign.CampaignGraph.barriered>`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

import numpy as np

from ..comm.message import Address
from ..pilot.description import TaskDescription
from .campaign import CampaignGraph, NodeRunner, TaskNode
from .dose_response import DoseResponseFit, fit_hill, fit_linear
from .pathways import EnrichmentResult, PathwayDatabase, enrich
from .vcf import generate_vcf, parse_vcf, transition_fraction, write_vcf
from .vep import GeneModel, VepAnnotator

__all__ = ["SignatureConfig", "SignatureResult", "SampleAnnotation",
           "SIGNATURE_STAGES", "build_signature_pipeline",
           "build_signature_campaign", "prepare_sample", "enrich_sample"]

#: Table I row 2: the pipeline's stages, one per level of the campaign graph
SIGNATURE_STAGES = ("data-preparation", "mutation-detection-analysis",
                    "llm-signature-comparison")
#: the platform stage 3's LLM client runs on
CLIENT_PLATFORM = "delta"


@dataclass
class SignatureConfig:
    """Scale and analysis knobs (defaults are laptop-sized)."""

    n_samples: int = 15                       # paper: 15 samples
    variants_per_sample: int = 300
    max_dose_gy: float = 2.0
    seed: int = 0
    min_impact: str = "MODERATE"
    #: burden quantile above which a gene counts as "hit" for enrichment
    burden_threshold: int = 1
    n_genes: int = 200
    n_pathways: int = 25

    def validate(self) -> None:
        if self.n_samples < 4:
            raise ValueError("need >= 4 samples for dose-response fits")
        if self.variants_per_sample < 10:
            raise ValueError("need >= 10 variants per sample")
        if self.max_dose_gy <= 0:
            raise ValueError("max_dose_gy must be positive")


@dataclass
class SampleAnnotation:
    """Stage-1 output for one sample."""

    sample_id: str
    dose_gy: float
    n_variants: int
    ct_fraction: float
    gene_burden: Dict[str, int]


def sample_doses(config: SignatureConfig) -> List[float]:
    """Evenly spread doses over [0, max_dose] across the samples."""
    return list(np.linspace(0.0, config.max_dose_gy, config.n_samples))


def prepare_sample(sample_index: int, dose_gy: float,
                   config: SignatureConfig) -> SampleAnnotation:
    """Task payload for stage 1: generate VCF -> parse -> annotate."""
    rng = np.random.default_rng(config.seed * 5000 + sample_index)
    variants = generate_vcf(config.variants_per_sample, dose_gy, rng)
    # Round-trip through the text format (exercises the real parser).
    variants = parse_vcf(write_vcf(variants))
    annotator = VepAnnotator(GeneModel(n_genes=config.n_genes))
    annotated = annotator.annotate(variants)
    # Dose concentrates damaging burden in the radiation target genes
    # (low-index tiles) -- plant the effect enrichment should recover.
    burden = annotator.gene_burden(annotated, min_impact=config.min_impact)
    n_extra = int(dose_gy * 12)
    target_genes = [f"G{i:04d}" for i in range(max(10, config.n_genes // 5))]
    for gene in rng.choice(target_genes, size=n_extra):
        burden[str(gene)] = burden.get(str(gene), 0) + 2
    return SampleAnnotation(
        sample_id=f"S{sample_index:03d}",
        dose_gy=dose_gy,
        n_variants=len(variants),
        ct_fraction=transition_fraction(variants),
        gene_burden=burden,
    )


def enrich_sample(annotation: SampleAnnotation,
                  database: PathwayDatabase,
                  config: SignatureConfig) -> List[EnrichmentResult]:
    """Task payload for stage 2: pathway enrichment for one sample."""
    hits: Set[str] = {gene for gene, count in annotation.gene_burden.items()
                      if count > config.burden_threshold}
    return enrich(hits, database)


@dataclass
class SignatureResult:
    """Pipeline summary (context key ``"result"``)."""

    annotations: List[SampleAnnotation]
    significant_by_sample: Dict[str, List[str]]
    recovered_radiation_pathways: List[str]
    planted_radiation_pathways: List[str]
    linear_fit: DoseResponseFit
    hill_fit: DoseResponseFit
    llm_summaries: List[str]

    @property
    def recovery_recall(self) -> float:
        """Fraction of planted pathways found in high-dose samples."""
        if not self.planted_radiation_pathways:
            return float("nan")
        planted = set(self.planted_radiation_pathways)
        return len(planted & set(self.recovered_radiation_pathways)) \
            / len(planted)


def build_signature_pipeline(
        config: Optional[SignatureConfig] = None,
        llm_targets: Optional[Sequence[Address]] = None) -> CampaignGraph:
    """The three-stage pipeline: the campaign with a barrier after each
    stage, so each stage's whole bag completes before the next one builds.

    *llm_targets*: service endpoints for stage 3's LLM comparison; when
    empty, the stage degrades to dose-response analysis only.
    """
    return build_signature_campaign(
        config, llm_targets).barriered(SIGNATURE_STAGES)


def build_signature_campaign(
        config: Optional[SignatureConfig] = None,
        llm_targets: Optional[Sequence[Address]] = None) -> CampaignGraph:
    """The use case as one streaming dataflow graph.

    Each sample is its own two-node dataflow chain ``prep-i -> enrich-i``:
    a sample's pathway enrichment starts the moment *its* annotation
    lands, while slower samples are still generating VCFs -- the stage
    barrier that made every enrichment wait for the slowest preparation
    is gone.  The final ``analysis`` node depends on every enrichment
    (dose-response fits need the full dose series).
    """
    config = config or SignatureConfig()
    config.validate()
    doses = sample_doses(config)
    database = PathwayDatabase.synthesise(
        n_genes=config.n_genes, n_pathways=config.n_pathways,
        seed=config.seed)
    nodes: List[TaskNode] = []

    def make_sample_nodes(i: int, dose: float) -> List[TaskNode]:
        def build_prep(context: Dict[str, Any]) -> List[TaskDescription]:
            return [TaskDescription(
                name=f"sig-prep-{i}", function=prepare_sample,
                fn_args=(i, dose, config), cores_per_rank=1)]

        def collect_prep(context: Dict[str, Any], tasks) -> None:
            context.setdefault("annotations_by_sample", {})[i] = \
                tasks[0].result

        def build_enrich(context: Dict[str, Any]) -> List[TaskDescription]:
            annotation = context["annotations_by_sample"][i]
            return [TaskDescription(
                name=f"sig-enrich-{annotation.sample_id}",
                function=enrich_sample,
                fn_args=(annotation, database, config), cores_per_rank=1)]

        def collect_enrich(context: Dict[str, Any], tasks) -> None:
            context.setdefault("enrichments_by_sample", {})[i] = \
                tasks[0].result

        return [
            TaskNode(name=f"prep-{i}", resource_type="CPU", as_service=True,
                     build=build_prep, collect=collect_prep),
            TaskNode(name=f"enrich-{i}", deps=(f"prep-{i}",),
                     resource_type="CPU", build=build_enrich,
                     collect=collect_enrich),
        ]

    for i, dose in enumerate(doses):
        nodes.extend(make_sample_nodes(i, dose))

    def run_analysis(runner: NodeRunner, context: Dict[str, Any]):
        """Dose-response fits over the full series, then the LLM prompts."""
        order = sorted(context["annotations_by_sample"])
        annotations = [context["annotations_by_sample"][i] for i in order]
        enrichments = [context["enrichments_by_sample"][i] for i in order]
        context["annotations"] = annotations
        context["enrichments"] = enrichments
        significant = {
            a.sample_id: [r.pathway for r in results if r.significant]
            for a, results in zip(annotations, enrichments)}
        # "Recovered" radiation pathways: significant in the top-dose half.
        median_dose = float(np.median([a.dose_gy for a in annotations]))
        recovered: Set[str] = set()
        for a, results in zip(annotations, enrichments):
            if a.dose_gy > median_dose:
                recovered |= {r.pathway for r in results
                              if r.significant and
                              r.pathway.startswith("RADIATION_RESPONSE")}

        xs = [a.dose_gy for a in annotations]
        ys = [a.ct_fraction for a in annotations]
        linear = fit_linear(xs, ys)
        hill = fit_hill(xs, ys)

        summaries: List[str] = []
        if llm_targets:
            from ..core.client import ServiceClient  # avoid import cycle
            client = ServiceClient(runner.session, platform=CLIENT_PLATFORM)
            top = sorted(recovered) or ["none"]
            prompt = (
                "compare mutational signatures across radiation doses : "
                f"ct fraction rises from {min(ys):.2f} to {max(ys):.2f} ; "
                f"enriched pathways {' , '.join(top)}")
            for target in llm_targets:
                result = yield from client.infer(
                    target, prompt, params={"max_tokens": 48})
                summaries.append(result.text)

        context["result"] = SignatureResult(
            annotations=annotations,
            significant_by_sample=significant,
            recovered_radiation_pathways=sorted(recovered),
            planted_radiation_pathways=list(database.radiation_pathways),
            linear_fit=linear,
            hill_fit=hill,
            llm_summaries=summaries,
        )

    nodes.append(TaskNode(
        name="analysis", deps=tuple(f"enrich-{i}" for i in range(len(doses))),
        resource_type="GPU", as_service=True, run=run_analysis))
    return CampaignGraph(name="signature-detection", nodes=nodes)
