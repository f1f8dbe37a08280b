"""Pathway database and enrichment analysis (KEGG/GO substitute).

Stage 2 of the Signature Detection pipeline combines "annotated variants
... with known pathways (e.g., KEGG and/or GO) to identify significantly
enriched genes, pathways, or molecular functions.  This step relies on
Python (e.g., pandas, numpy, and scipy) modules" (§II-B).

We synthesise a pathway database over the synthetic gene universe (with
designated radiation-response pathways whose members are enriched in
high-dose samples by construction) and run the standard hypergeometric
over-representation test with Benjamini-Hochberg FDR control -- scipy for
the tail probabilities, numpy for the vectorised correction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "PathwayDatabase",
    "EnrichmentResult",
    "enrich",
    "benjamini_hochberg",
]


@dataclass
class PathwayDatabase:
    """Named gene sets over a gene universe."""

    universe: List[str]
    pathways: Dict[str, Set[str]]
    #: names of the planted radiation-response pathways (ground truth)
    radiation_pathways: List[str] = field(default_factory=list)

    @classmethod
    def synthesise(cls, n_genes: int = 200, n_pathways: int = 25,
                   pathway_size: Tuple[int, int] = (8, 30),
                   n_radiation: int = 3, seed: int = 0) -> "PathwayDatabase":
        """Build a random database with *n_radiation* designated pathways.

        Radiation pathways preferentially contain low-index genes, which is
        also where the signature-detection workflow concentrates mutation
        burden -- giving the enrichment test a true signal to find.
        """
        if n_radiation > n_pathways:
            raise ValueError("n_radiation cannot exceed n_pathways")
        rng = np.random.default_rng(seed)
        universe = [f"G{i:04d}" for i in range(n_genes)]
        pathways: Dict[str, Set[str]] = {}
        radiation: List[str] = []
        target_pool = universe[:max(10, n_genes // 5)]  # low-index genes
        for p in range(n_pathways):
            size = int(rng.integers(pathway_size[0], pathway_size[1] + 1))
            if p < n_radiation:
                name = f"RADIATION_RESPONSE_{p}"
                # ~70% of members from the radiation target pool
                n_target = max(1, int(0.7 * size))
                members = set(rng.choice(target_pool, size=min(
                    n_target, len(target_pool)), replace=False))
                rest = size - len(members)
                if rest > 0:
                    members |= set(rng.choice(universe, size=rest,
                                              replace=False))
                radiation.append(name)
            else:
                name = f"PATHWAY_{p:03d}"
                members = set(rng.choice(universe, size=size, replace=False))
            pathways[name] = members
        return cls(universe=universe, pathways=pathways,
                   radiation_pathways=radiation)

    def __len__(self) -> int:
        return len(self.pathways)


@dataclass(frozen=True)
class EnrichmentResult:
    """One pathway's over-representation statistics."""

    pathway: str
    overlap: int
    pathway_size: int
    hits: int
    universe: int
    p_value: float
    q_value: float

    @property
    def significant(self) -> bool:
        return self.q_value < 0.05


def benjamini_hochberg(p_values: Sequence[float]) -> np.ndarray:
    """BH step-up FDR adjustment; returns monotone q-values."""
    p = np.asarray(list(p_values), dtype=float)
    if p.size == 0:
        return p
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must be in [0, 1]")
    n = p.size
    order = np.argsort(p)
    ranked = p[order] * n / (np.arange(n) + 1)
    # enforce monotonicity from the largest rank down
    ranked = np.minimum.accumulate(ranked[::-1])[::-1]
    q = np.empty(n)
    q[order] = np.minimum(ranked, 1.0)
    return q


def enrich(hit_genes: Set[str],
           database: PathwayDatabase) -> List[EnrichmentResult]:
    """Hypergeometric over-representation test for every pathway.

    *hit_genes* is the mutated/burdened gene set of one sample (or sample
    group).  Returns results sorted by q-value.
    """
    # scipy.stats is imported on first use (see hpo.TpeSampler._kde)
    from scipy.stats import hypergeom

    universe = set(database.universe)
    hits = hit_genes & universe
    M, n_hits = len(universe), len(hits)
    raw: List[Tuple[str, int, int, float]] = []
    for name, members in database.pathways.items():
        k = len(hits & members)
        size = len(members)
        # P[X >= k] with X ~ Hypergeom(M, size, n_hits)
        p = float(hypergeom.sf(k - 1, M, size, n_hits)) if k > 0 else 1.0
        raw.append((name, k, size, p))
    q_values = benjamini_hochberg([r[3] for r in raw])
    results = [
        EnrichmentResult(pathway=name, overlap=k, pathway_size=size,
                         hits=n_hits, universe=M, p_value=p,
                         q_value=float(q))
        for (name, k, size, p), q in zip(raw, q_values)
    ]
    results.sort(key=lambda r: (r.q_value, r.p_value))
    return results
