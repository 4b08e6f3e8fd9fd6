#!/usr/bin/env python3
"""Domain scenario: assembling error-containing reads.

The paper samples error-free reads; real sequencers substitute bases
at ~0.1-1 %.  This example shows the standard de Bruijn counter-
measure — k-mer frequency filtering (``min_count``) — working on the
PIM pipeline: erroneous k-mers appear once or twice, genuine k-mers
appear ~coverage times, so thresholding removes the error tips/bulges
before traversal.

Run:
    python examples/noisy_reads_assembly.py
"""

from repro import assemble_with_pim
from repro.assembly import evaluate_assembly
from repro.core import PimAssembler
from repro.genome import ReadSimulator, synthetic_chromosome


def run_one(error_rate: float, min_count: int, reference, k: int = 15):
    simulator = ReadSimulator(read_length=70, seed=99, error_rate=error_rate)
    count = simulator.reads_for_coverage(len(reference), 30)
    reads = simulator.sample(reference, count)
    # Error k-mers inflate the table, so give the device headroom.
    pim = PimAssembler.small(subarrays=16, rows=512, cols=64)
    result = assemble_with_pim(reads, k=k, pim=pim, min_count=min_count)
    return evaluate_assembly(result.contigs, reference)


def main() -> None:
    reference = synthetic_chromosome(900, seed=2024)
    print(f"reference: {len(reference)} bp synthetic chromosome\n")

    print("error-free reads, no filtering:")
    clean = run_one(error_rate=0.0, min_count=1, reference=reference)
    print(f"  {clean}")

    print("\n1% substitution errors, no filtering (graph polluted):")
    noisy = run_one(error_rate=0.01, min_count=1, reference=reference)
    print(f"  {noisy}")

    print("\n1% substitution errors, min_count=3 (errors filtered):")
    filtered = run_one(error_rate=0.01, min_count=3, reference=reference)
    print(f"  {filtered}")

    assert filtered.n50 >= noisy.n50, "filtering should not fragment further"
    print(
        f"\nfiltering recovered N50 {noisy.n50} -> {filtered.n50} "
        f"({filtered.num_contigs} contigs)"
    )


if __name__ == "__main__":
    main()
