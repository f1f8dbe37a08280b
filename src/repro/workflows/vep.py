"""A rule-based Variant Effect Predictor (the paper's VEP substitute).

The Signature Detection pipeline "invokes the Ensembl Variant Effect
Predictor (VEP) to annotate each sample's VCF data.  A single VEP run for
one sample takes 1-5 minutes ... VEP can be run locally or via a REST
interface" (§II-B).  We reproduce the *interface and behaviour*: a
deterministic annotator mapping positions to genes (uniform gene model over
the synthetic genome) and substitutions to consequence classes, usable both
as a local function task and exposed through the service API.

The real VEP's cost is modelled by the task description (minutes of
``duration_s``); the annotation itself really runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from .vcf import Variant

__all__ = ["GeneModel", "AnnotatedVariant", "VepAnnotator", "CONSEQUENCES"]

#: Consequence classes, ordered by (modelled) severity.
CONSEQUENCES = (
    "synonymous_variant",
    "missense_variant",
    "stop_gained",
    "splice_site_variant",
    "intergenic_variant",
)


@dataclass(frozen=True)
class GeneModel:
    """A uniform synthetic gene model over a linear genome.

    ``n_genes`` genes of equal length tile the genome with intergenic gaps;
    variant positions map deterministically to (gene, region).
    """

    genome_size: int = 3_000_000
    n_genes: int = 200
    coding_fraction: float = 0.6   # fraction of each gene tile that is coding

    def __post_init__(self) -> None:
        if self.n_genes < 1 or self.genome_size < self.n_genes:
            raise ValueError("invalid gene model dimensions")
        if not 0 < self.coding_fraction <= 1:
            raise ValueError("coding_fraction must be in (0, 1]")

    @property
    def tile_size(self) -> int:
        return self.genome_size // self.n_genes

    def gene_at(self, pos: int) -> str:
        """Gene identifier covering *pos* (1-based)."""
        index = min((pos - 1) // self.tile_size, self.n_genes - 1)
        return f"G{index:04d}"

    def is_coding(self, pos: int) -> bool:
        offset = (pos - 1) % self.tile_size
        return offset < self.coding_fraction * self.tile_size


@dataclass(frozen=True)
class AnnotatedVariant:
    """A variant plus VEP-style annotation."""

    variant: Variant
    gene: str
    consequence: str
    impact: str  # LOW | MODERATE | HIGH | MODIFIER


class VepAnnotator:
    """Deterministic, rule-based variant-effect annotation."""

    IMPACT = {
        "synonymous_variant": "LOW",
        "missense_variant": "MODERATE",
        "stop_gained": "HIGH",
        "splice_site_variant": "HIGH",
        "intergenic_variant": "MODIFIER",
    }

    def __init__(self, gene_model: GeneModel | None = None) -> None:
        self.genes = gene_model or GeneModel()

    def annotate_one(self, variant: Variant) -> AnnotatedVariant:
        """Annotate one variant (pure function of position + alleles)."""
        gene = self.genes.gene_at(variant.pos)
        if not self.genes.is_coding(variant.pos):
            consequence = "intergenic_variant"
        else:
            offset = (variant.pos - 1) % self.genes.tile_size
            # Splice sites: tile-local hotspots at coding-region edges.
            if offset % 97 == 0:
                consequence = "splice_site_variant"
            elif variant.is_transition:
                # transitions: mostly missense, codon-position dependent
                consequence = ("synonymous_variant" if variant.pos % 3 == 0
                               else "missense_variant")
            else:
                # transversions are harsher
                consequence = ("stop_gained" if variant.pos % 7 == 0
                               else "missense_variant")
        return AnnotatedVariant(
            variant=variant, gene=gene, consequence=consequence,
            impact=self.IMPACT[consequence])

    def annotate(self, variants: Sequence[Variant]) -> List[AnnotatedVariant]:
        """Annotate a sample (list order preserved)."""
        return [self.annotate_one(v) for v in variants]

    def gene_burden(self, annotated: Sequence[AnnotatedVariant],
                    min_impact: str = "MODERATE") -> Dict[str, int]:
        """Count qualifying variants per gene (the enrichment input)."""
        rank = {"MODIFIER": 0, "LOW": 1, "MODERATE": 2, "HIGH": 3}
        threshold = rank[min_impact]
        burden: Dict[str, int] = {}
        for av in annotated:
            if rank[av.impact] >= threshold:
                burden[av.gene] = burden.get(av.gene, 0) + 1
        return burden
