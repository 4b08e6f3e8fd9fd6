"""Software baseline assembler (the golden model).

A straightforward dictionary-based de Bruijn assembler with no PIM
involvement — the CPU baseline the functional tests compare the
PIM-mapped pipeline against, and the kind of tool (Velvet-style) the
paper describes as the status quo for de novo assembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.assembly.contigs import Contig, assemble_contigs
from repro.assembly.debruijn import DeBruijnGraph
from repro.assembly.hashmap import SoftwareKmerCounter
from repro.genome.reads import Read
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class SoftwareAssemblyResult:
    """Everything the software pipeline produced."""

    contigs: list[Contig]
    graph: DeBruijnGraph
    kmer_table_size: int


def assemble(
    reads: "Iterable[Read] | Sequence[DnaSequence]",
    k: int,
    min_count: int = 1,
    mode: str = "unitig",
    min_contig_length: int = 0,
) -> SoftwareAssemblyResult:
    """End-to-end software assembly.

    Args:
        reads: :class:`Read` objects or raw sequences.
        k: k-mer length.
        min_count: k-mer frequency threshold for graph edges.
        mode: contig extraction mode (``"unitig"`` or ``"euler"``).
        min_contig_length: drop contigs shorter than this.
    """
    counter = SoftwareKmerCounter(k)
    for item in reads:
        sequence = item.sequence if isinstance(item, Read) else item
        counter.add_sequence(sequence)
    graph = DeBruijnGraph.from_counts(counter.counts(), k=k, min_count=min_count)
    contigs = assemble_contigs(graph, mode=mode, min_length=min_contig_length)
    return SoftwareAssemblyResult(
        contigs=contigs, graph=graph, kmer_table_size=len(counter)
    )
