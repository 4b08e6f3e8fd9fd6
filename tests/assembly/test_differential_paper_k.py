"""Bulk pipeline against the reference assembler at the paper's k.

A ~3 kbp synthetic chromosome with the default dispersed and tandem
repeats, 101-bp reads at 10x: at k = 16, 22, 26 and 32 (PAPER.md §1.5)
the bulk PIM pipeline must produce exactly the contigs (names, order,
sequences, edge counts) of ``reference_impl``, which shares no graph or
traversal code with it — from error-free reads, and from reads with 1%
substitution errors filtered at ``min_count=2``.
"""

from __future__ import annotations

import pytest

from repro.assembly import reference_impl
from repro.assembly.pipeline import assemble_with_pim, _sized_device
from repro.genome import ReadSimulator, synthetic_chromosome
from repro.genome.kmer import PAPER_K_VALUES

GENOME_BP = 3_000


def contigs_of(contigs):
    return [(c.name, str(c.sequence), c.edge_count) for c in contigs]


@pytest.fixture(scope="module", params=[0.0, 0.01], ids=["clean", "1pct-errors"])
def reads(request):
    genome = synthetic_chromosome(GENOME_BP, seed=23)
    simulator = ReadSimulator(read_length=101, seed=24, error_rate=request.param)
    return request.param, simulator.sample(
        genome, simulator.reads_for_coverage(GENOME_BP, 10.0)
    )


@pytest.mark.parametrize("k", PAPER_K_VALUES)
def test_bulk_pipeline_matches_reference(reads, k):
    error_rate, sample = reads
    min_count = 2 if error_rate else 1
    pim = _sized_device(sample, k)
    result = assemble_with_pim(
        sample, k=k, pim=pim, engine="bulk", min_count=min_count
    )
    reference = reference_impl.assemble(sample, k, min_count=min_count)
    assert result.contigs
    assert contigs_of(result.contigs) == contigs_of(reference.contigs)
    assert result.graph.num_edges == reference.graph.num_edges
