"""Metamorphic relations of a bulk assembly run.

Inputs that must not matter to the result are varied and the outputs
compared exactly:

* the order the reads arrive in — the k-mer table is a multiset, so
  the contigs (names, order, sequences, edge counts) must not move;
* the host batch size ``BATCH_KMERS`` — batching only groups host calls,
  so the contigs, the per-phase ledger (``float.hex`` of time and
  energy) and the per-mnemonic command counts must not move either.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.assembly.pipeline as pipeline
from repro.assembly.pipeline import _sized_device, assemble_with_pim
from repro.genome import ReadSimulator, synthetic_chromosome

GENOME_BP = 2_000
K = 22


@pytest.fixture(scope="module")
def reads():
    genome = synthetic_chromosome(GENOME_BP, seed=31)
    simulator = ReadSimulator(read_length=101, seed=32)
    return simulator.sample(genome, simulator.reads_for_coverage(GENOME_BP, 10.0))


def run(reads):
    pim = _sized_device(reads, K)
    result = assemble_with_pim(reads, k=K, pim=pim, engine="bulk")
    contigs = [(c.name, str(c.sequence), c.edge_count) for c in result.contigs]
    stats = pim.stats
    ledger = {
        phase: (
            float(stats.totals(phase).time_ns).hex(),
            float(stats.totals(phase).energy_nj).hex(),
            dict(stats.totals(phase).commands),
        )
        for phase in [None, *stats.phases()]
    }
    return contigs, ledger


@pytest.fixture(scope="module")
def baseline(reads):
    return run(reads)


@pytest.mark.parametrize("seed", [1, 2])
def test_contigs_invariant_under_read_order(reads, baseline, seed):
    order = np.random.default_rng(seed).permutation(len(reads))
    contigs, _ = run([reads[i] for i in order])
    assert baseline[0]
    assert contigs == baseline[0]


@pytest.mark.parametrize(
    "batch_kmers", [997, 3 * pipeline.BATCH_KMERS], ids=["many", "one"]
)
def test_outputs_invariant_under_host_batch_size(
    reads, baseline, batch_kmers, monkeypatch
):
    # the default cuts the read set into two batches, 997 into more
    # than eight (each spanning several reads), 3x the default into one
    arrivals = len(reads) * (101 - K + 1)
    assert pipeline.BATCH_KMERS < arrivals < 2 * pipeline.BATCH_KMERS
    monkeypatch.setattr(pipeline, "BATCH_KMERS", batch_kmers)
    contigs, ledger = run(reads)
    assert contigs == baseline[0]
    assert ledger == baseline[1]
