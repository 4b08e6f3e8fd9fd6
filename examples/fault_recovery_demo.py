#!/usr/bin/env python3
"""Fault recovery demo: assembling through ±15% process variation.

Assembles the same simulated read set three times on the functional
simulator, with Table-I-derived fault rates injected into every
in-memory operation:

1. **fault-free baseline** — the contigs the run *should* produce;
2. **policy off** — faults flow straight into the k-mer table; missed
   in-memory comparisons split counts across duplicate slots, edges
   drop below ``min_count``, and the assembly fragments;
3. **detect-retry-remap** — every compute op is parity-verified, flagged
   ops retry with re-staged operands, the k-mer table is scrubbed
   between stages, persistently failing rows are quarantined — and the
   contigs come back bit-identical to the baseline.

The run ends with the resilience report (detected/corrected events,
retries, quarantined sub-arrays) and the verification overhead the
detect loop charged to the stats ledger.  The exit status is 1 when
the protected contigs differ from the baseline, so the demo doubles as
a recovery check.

Run:
    python examples/fault_recovery_demo.py [--engine {scalar,bulk}]
"""

import argparse
import sys

from repro.assembly.metrics import evaluate_assembly
from repro.assembly.pipeline import PimPipeline, _sized_device
from repro.core.faults import FaultModel
from repro.genome import ReadSimulator, synthetic_chromosome

VARIATION_PERCENT = 15.0
GENOME_LENGTH = 500
COVERAGE = 8.0
READ_LENGTH = 80
K = 9
MIN_COUNT = 2
SEEDS = {"genome": 700, "reads": 701, "faults": 702}


def assemble(reads, variation: float, policy: "str | None", engine: str):
    pim = _sized_device(reads, K)
    if variation > 0:
        pim.controller.faults = FaultModel.from_variation(
            variation, seed=SEEDS["faults"]
        )
    pipeline = PimPipeline(
        pim, k=K, min_count=MIN_COUNT, resilience=policy, engine=engine
    )
    return pipeline.run(reads)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine", choices=("scalar", "bulk"), default="scalar"
    )
    engine = parser.parse_args().engine
    reference = synthetic_chromosome(GENOME_LENGTH, seed=SEEDS["genome"])
    simulator = ReadSimulator(read_length=READ_LENGTH, seed=SEEDS["reads"])
    reads = simulator.sample(
        reference, simulator.reads_for_coverage(len(reference), COVERAGE)
    )
    print(
        f"workload: {len(reads)} reads x {READ_LENGTH}bp "
        f"(~{COVERAGE:.0f}x coverage of a {GENOME_LENGTH}bp reference), "
        f"k={K}, min_count={MIN_COUNT}, engine={engine}"
    )

    print("\n=== 1. fault-free baseline ===")
    baseline = assemble(reads, 0.0, None, engine)
    baseline_contigs = sorted(str(c.sequence) for c in baseline.contigs)
    print(evaluate_assembly(baseline.contigs, reference))

    print(f"\n=== 2. ±{VARIATION_PERCENT:.0f}% variation, policy OFF ===")
    unprotected = assemble(reads, VARIATION_PERCENT, "off", engine)
    off_contigs = sorted(str(c.sequence) for c in unprotected.contigs)
    print(evaluate_assembly(unprotected.contigs, reference))
    print(
        "contigs identical to baseline: "
        f"{'yes' if off_contigs == baseline_contigs else 'NO — corrupted'}"
    )

    print(
        f"\n=== 3. ±{VARIATION_PERCENT:.0f}% variation, "
        "policy detect-retry-remap ==="
    )
    protected = assemble(
        reads, VARIATION_PERCENT, "detect-retry-remap", engine
    )
    recovered = (
        sorted(str(c.sequence) for c in protected.contigs) == baseline_contigs
    )
    print(evaluate_assembly(protected.contigs, reference))
    print(
        "contigs identical to baseline: "
        f"{'yes — recovered' if recovered else 'NO'}"
    )

    report = protected.resilience
    print(f"\nresilience report:\n  {report}")
    for stage, counts in report.stages.items():
        print(
            f"  {stage:>8}: detected={counts.detected} "
            f"corrected={counts.corrected} uncorrected={counts.uncorrected} "
            f"retries={counts.retries} scrubbed={counts.scrubbed_rows}"
        )
    overhead = report.totals.verify_time_ns / protected.total_time_ns
    print(
        f"\nverification overhead: {report.totals.verify_time_ns / 1e3:.1f} us "
        f"({overhead:.1%} of the protected run), "
        f"{report.totals.verify_energy_nj:.1f} nJ"
    )
    slowdown = protected.total_time_ns / baseline.total_time_ns
    print(f"protected-run slowdown vs fault-free baseline: {slowdown:.2f}x")
    return 0 if recovered else 1


if __name__ == "__main__":
    sys.exit(main())
