"""PIM-Assembler: a processing-in-DRAM platform for genome assembly.

A full behavioural reproduction of *PIM-Assembler: A Processing-in-
Memory Platform for Genome Assembly* (Angizi, Fahmi, Zhang, Fan —
DAC 2020).

Package map:

* :mod:`repro.dram` — analog DRAM substrate: charge sharing, shifted-
  VTC sensing, process variation, transients.
* :mod:`repro.core` — the architectural contribution: computational
  sub-arrays, the AAP ISA, controller, timing/energy/area models and
  the :class:`~repro.core.platform.PimAssembler` facade.
* :mod:`repro.platforms` — analytic models of the compared platforms
  (CPU, GPU, HMC 2.0, Ambit, DRISA-1T1C/3T1C).
* :mod:`repro.genome` — sequences, FASTA/FASTQ IO, synthetic
  references, read simulation, k-mers.
* :mod:`repro.assembly` — the PIM-mapped de Bruijn pipeline (hashmap,
  graph, Eulerian traversal, contigs) plus the software
  golden model.
* :mod:`repro.mapping` — correlated hash-table layout, interval-block
  partitioning, allocation, adjacency mapping, the Pd model.
* :mod:`repro.eval` — one experiment module per paper table/figure.

Quickstart::

    from repro import PimAssembler, assemble_with_pim
    from repro.genome import synthetic_chromosome, ReadSimulator

    ref = synthetic_chromosome(2000, seed=7)
    sim = ReadSimulator(read_length=60, seed=1)
    reads = sim.sample(ref, sim.reads_for_coverage(len(ref), 25))
    result = assemble_with_pim(reads, k=21)
    print(result.contigs[0].sequence)
"""

from repro.assembly import PimPipeline, assemble, assemble_with_pim
from repro.core import PimAssembler
from repro.genome import DnaSequence, ReadSimulator, synthetic_chromosome

__version__ = "1.0.0"

__all__ = [
    "PimAssembler",
    "PimPipeline",
    "assemble",
    "assemble_with_pim",
    "DnaSequence",
    "ReadSimulator",
    "synthetic_chromosome",
    "__version__",
]
