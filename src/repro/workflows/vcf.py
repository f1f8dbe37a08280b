"""VCF generation and parsing for the Signature Detection pipeline.

The paper's pipeline "analyzes DNA variants from 15 samples (each ~300 MB
VCF files) exposed to low-dose ionizing radiation" (§II-B).  We synthesise
VCF data with a *planted dose-dependent mutational signature* -- the
fraction of C>T transitions (the canonical ionising-radiation-associated
signature) rises with dose -- so the downstream analysis has a real effect
to recover, and we parse the standard VCF text format back.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["Variant", "generate_vcf", "parse_vcf", "write_vcf",
           "transition_fraction", "NUCLEOTIDES"]

NUCLEOTIDES = ("A", "C", "G", "T")

#: Baseline probability that a variant is a C>T transition, and how strongly
#: dose (in Gy) shifts it.  Planted effect recovered by the pipeline.
BASE_CT_FRACTION = 0.25
CT_PER_GY = 0.35

VCF_HEADER = """##fileformat=VCFv4.2
##source=repro-synthetic
##INFO=<ID=GENE,Number=1,Type=String,Description="Overlapping gene">
#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO
"""


@dataclass(frozen=True)
class Variant:
    """One VCF record (the fields the pipeline consumes)."""

    chrom: str
    pos: int
    ref: str
    alt: str
    qual: float
    gene: Optional[str] = None

    @property
    def is_transition(self) -> bool:
        """Purine<->purine or pyrimidine<->pyrimidine substitution."""
        pairs = {("A", "G"), ("G", "A"), ("C", "T"), ("T", "C")}
        return (self.ref, self.alt) in pairs

    @property
    def is_ct(self) -> bool:
        """C>T (or the reverse-strand equivalent G>A) transition."""
        return (self.ref, self.alt) in {("C", "T"), ("G", "A")}


def generate_vcf(n_variants: int, dose_gy: float, rng,
                 genome_size: int = 3_000_000,
                 chrom: str = "chr1") -> List[Variant]:
    """Synthesise variants with a dose-dependent C>T signature."""
    if n_variants < 0:
        raise ValueError("n_variants must be >= 0")
    if dose_gy < 0:
        raise ValueError("dose_gy must be >= 0")
    ct_fraction = min(0.9, BASE_CT_FRACTION + CT_PER_GY * dose_gy)
    positions = np.sort(rng.choice(genome_size, size=n_variants,
                                   replace=False))
    quals = rng.uniform(30.0, 90.0, size=n_variants)
    is_ct = rng.random(n_variants) < ct_fraction
    variants: List[Variant] = []
    for pos, qual, ct in zip(positions, quals, is_ct):
        if ct:
            ref, alt = ("C", "T") if rng.random() < 0.5 else ("G", "A")
        else:
            # any substitution that is not C>T / G>A
            while True:
                ref = NUCLEOTIDES[int(rng.integers(4))]
                alt = NUCLEOTIDES[int(rng.integers(4))]
                if alt != ref and (ref, alt) not in {("C", "T"), ("G", "A")}:
                    break
        # QUAL is quantised to the VCF text precision (one decimal) so that
        # generate -> write -> parse round-trips exactly.
        variants.append(Variant(chrom=chrom, pos=int(pos) + 1, ref=ref,
                                alt=alt, qual=round(float(qual), 1)))
    return variants


def write_vcf(variants: Iterable[Variant]) -> str:
    """Serialise variants to VCF text."""
    buf = io.StringIO()
    buf.write(VCF_HEADER)
    for v in variants:
        info = f"GENE={v.gene}" if v.gene else "."
        buf.write(f"{v.chrom}\t{v.pos}\t.\t{v.ref}\t{v.alt}"
                  f"\t{v.qual:.1f}\tPASS\t{info}\n")
    return buf.getvalue()


def parse_vcf(text: str) -> List[Variant]:
    """Parse VCF text back into :class:`Variant` records."""
    variants: List[Variant] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) < 8:
            raise ValueError(f"malformed VCF line {lineno}: {line!r}")
        chrom, pos, _vid, ref, alt, qual, _filt, info = fields[:8]
        gene = None
        for item in info.split(";"):
            if item.startswith("GENE="):
                gene = item[5:]
        variants.append(Variant(chrom=chrom, pos=int(pos), ref=ref, alt=alt,
                                qual=float(qual), gene=gene))
    return variants


def transition_fraction(variants: Sequence[Variant]) -> float:
    """Fraction of C>T-equivalent transitions (the signature statistic)."""
    if not variants:
        return float("nan")
    return sum(v.is_ct for v in variants) / len(variants)
