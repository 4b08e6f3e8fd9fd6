"""Interval-block graph partitioning (paper Section III, Fig. 8 stage 1).

"We adopt interval-block partitioning ... We utilise [a] hash-based
method to divide the vertices into M intervals and then divide edges
into M^2 blocks.  Then each block is allocated to a chip and mapped to
its sub-arrays."

:class:`IntervalBlockPartition` implements that: vertex -> interval by
the same multiplicative hash the hash table uses; edge id (u, v) ->
block (interval(u), interval(v)); blocks are assigned to chips round-robin
along the destination-major order of the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from typing import TYPE_CHECKING

from repro.mapping.hashing import kmer_partition, kmer_partition_array

if TYPE_CHECKING:  # import cycle: the assembly package uses mapping
    from repro.assembly.debruijn import DeBruijnGraph


@dataclass(frozen=True)
class BlockId:
    """One edge block: (source interval, destination interval)."""

    source_interval: int
    destination_interval: int

    def __post_init__(self) -> None:
        if self.source_interval < 0 or self.destination_interval < 0:
            raise ValueError("interval indices must be non-negative")


@dataclass
class IntervalBlockPartition:
    """Vertex intervals and M^2 edge blocks of a de Bruijn graph.

    Args:
        intervals: M, the number of vertex intervals (= chips in the
            paper's allocation).

    Blocks hold the graph's edge ids, ascending.
    """

    intervals: int
    _edges: dict[BlockId, np.ndarray] = field(default_factory=dict)
    _vertex_counts: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.intervals <= 0:
            raise ValueError("intervals must be positive")

    # ----- construction -------------------------------------------------------

    def vertex_interval(self, node: int) -> int:
        """Interval of a vertex key (hash-based, uniform)."""
        return kmer_partition(node, self.intervals)

    @classmethod
    def from_graph(cls, graph: DeBruijnGraph, intervals: int) -> "IntervalBlockPartition":
        partition = cls(intervals=intervals)
        interval = kmer_partition_array(graph.node_keys, intervals)
        partition._vertex_counts = np.bincount(
            interval, minlength=intervals
        ).tolist()
        block = interval[graph.sources] * intervals + interval[graph.targets]
        order = np.argsort(block, kind="stable")
        cuts = np.flatnonzero(np.diff(block[order])) + 1
        for ids in np.split(order, cuts):
            if ids.size:
                source, destination = divmod(int(block[ids[0]]), intervals)
                partition._edges[BlockId(source, destination)] = ids
        return partition

    # ----- queries ---------------------------------------------------------------

    @property
    def num_blocks(self) -> int:
        """M^2 — including empty blocks."""
        return self.intervals * self.intervals

    def block_edges(self, block: BlockId) -> np.ndarray:
        """Edge ids of one block (empty when the block is)."""
        return self._edges.get(block, np.empty(0, dtype=np.int64)).copy()

    def nonempty_blocks(self) -> list[BlockId]:
        return sorted(
            self._edges,
            key=lambda b: (b.destination_interval, b.source_interval),
        )

    def interval_sizes(self) -> list[int]:
        """Vertices per interval (load-balance check)."""
        return list(self._vertex_counts) or [0] * self.intervals

    # ----- allocation (stage 2 of Fig. 8) --------------------------------------------

    def chip_assignment(self, chips: int | None = None) -> dict[BlockId, int]:
        """Assign blocks to chips.

        The paper allocates along destination intervals (each chip owns
        a destination stripe so the degree reduction of its vertices is
        local); blocks sharing a destination interval land on the same
        chip, destination intervals round-robin over chips.
        """
        if chips is None:
            chips = self.intervals
        if chips <= 0:
            raise ValueError("chips must be positive")
        return {
            block: block.destination_interval % chips
            for block in self.nonempty_blocks()
        }

    def load_balance(self, chips: int | None = None) -> list[int]:
        """Edges per chip under :meth:`chip_assignment`."""
        if chips is None:
            chips = self.intervals
        if chips <= 0:
            raise ValueError("chips must be positive")
        loads = [0] * chips
        assignment = self.chip_assignment(chips)
        for block, chip in assignment.items():
            loads[chip] += int(self._edges[block].size)
        return loads
