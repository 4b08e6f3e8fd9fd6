"""Genome assembly algorithms, PIM-mapped and software golden models."""

from repro.assembly.contigs import Contig, assemble_contigs, spell_walk
from repro.assembly.debruijn import DeBruijnGraph, build_graph_from_sequences
from repro.assembly.euler import euler_walk, fleury_walk, unitig_walk
from repro.assembly.hashmap import (
    PimKmerCounter,
    SoftwareKmerCounter,
    kmer_partition,
)
from repro.assembly.metrics import (
    AssemblyReport,
    evaluate_assembly,
    genome_fraction,
    largest_contig,
    misassembled_contigs,
    n50,
    nx_length,
    total_length,
)
from repro.assembly.pipeline import AssemblyResult, PimPipeline, assemble_with_pim
from repro.assembly.reference_impl import SoftwareAssemblyResult, assemble

__all__ = [
    "Contig",
    "assemble_contigs",
    "spell_walk",
    "DeBruijnGraph",
    "build_graph_from_sequences",
    "euler_walk",
    "fleury_walk",
    "unitig_walk",
    "PimKmerCounter",
    "SoftwareKmerCounter",
    "kmer_partition",
    "AssemblyReport",
    "evaluate_assembly",
    "genome_fraction",
    "largest_contig",
    "misassembled_contigs",
    "n50",
    "nx_length",
    "total_length",
    "AssemblyResult",
    "PimPipeline",
    "assemble_with_pim",
    "SoftwareAssemblyResult",
    "assemble",
]
