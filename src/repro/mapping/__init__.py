"""Data mapping and partitioning (paper Section III).

* :mod:`~repro.mapping.kmer_layout` — the Fig. 6 correlated hash-table
  layout (k-mer / value / temp regions of one sub-array).
* :mod:`~repro.mapping.graph_partition` — interval-block partitioning
  of the de Bruijn graph into M^2 blocks across chips.
* :mod:`~repro.mapping.allocation` — the Ns = ceil(N/f) sub-array
  allocation rule.
* :mod:`~repro.mapping.adjacency` — adjacency-matrix mapping and the
  carry-save in-memory degree computation of Fig. 8.
* :mod:`~repro.mapping.parallelism` — the Pd replication model of
  Fig. 10.
"""

from repro.mapping.adjacency import (
    adjacency_rows_for_chunk,
    degree_vectors_pim,
    wallace_column_sum,
)
from repro.mapping.allocation import (
    AllocationPlan,
    chips_needed,
    plan_allocation,
    subarrays_for_vertices,
    vertices_per_subarray,
)
from repro.mapping.graph_partition import BlockId, IntervalBlockPartition
from repro.mapping.kmer_layout import (
    COUNTER_BITS,
    KmerLayout,
    paper_layout,
    scaled_layout,
)
from repro.mapping.parallelism import PAPER_PD_VALUES, ParallelismModel

__all__ = [
    "adjacency_rows_for_chunk",
    "degree_vectors_pim",
    "wallace_column_sum",
    "AllocationPlan",
    "chips_needed",
    "plan_allocation",
    "subarrays_for_vertices",
    "vertices_per_subarray",
    "BlockId",
    "IntervalBlockPartition",
    "COUNTER_BITS",
    "KmerLayout",
    "paper_layout",
    "scaled_layout",
    "PAPER_PD_VALUES",
    "ParallelismModel",
]
