"""Stage 2a — de Bruijn graph construction (paper Fig. 5c).

The reconstructed ``DeBruijn(Hashmap, k)`` procedure: for every k-mer
in the hash table, ``node_1 = k_mer[0 .. k-2]`` and ``node_2 =
k_mer[1 .. k-1]`` become vertices and ``(node_1, node_2)`` an edge.
Nodes are (k-1)-mers stored as packed integers; each distinct k-mer
contributes one edge carrying its observed frequency as an attribute
(frequencies below ``min_count`` can be dropped — the standard
error-filtering knob).

The graph is arrays only: edges are parallel ``uint64`` k-mer /
``int64`` count / node-id arrays grouped by source (CSR out-edge
offsets), nodes one ``uint64`` key array, degrees ``bincount`` arrays,
components one label array.  Node ids follow the order in which a walk
over the sorted k-mers first meets each node as source or target, and
edge ids the CSR order; the traversals, the degree chunks and contig
naming depend on both.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.genome.alphabet import BITS_PER_BASE
from repro.genome.kmer import MAX_PACKED_K, packed_kmers_batch
from repro.genome.sequence import DnaSequence


class DeBruijnGraph:
    """A de Bruijn multigraph over packed (k-1)-mer node keys.

    Args:
        k: k-mer length (2..32).
        kmers: the edges' packed k-mers, strictly increasing.
        counts: each k-mer's frequency (positive).

    Edge ``e`` runs from node ``sources[e]`` to ``targets[e]``; node
    ``i``'s out-edges are ``offsets[i]:offsets[i + 1]``, its key
    ``node_keys[i]``.
    """

    def __init__(
        self,
        k: int,
        kmers: "np.ndarray | None" = None,
        counts: "np.ndarray | None" = None,
    ) -> None:
        if k < 2:
            raise ValueError("de Bruijn construction needs k >= 2")
        if k > MAX_PACKED_K:
            raise ValueError(f"k={k} exceeds the packing limit {MAX_PACKED_K}")
        self.k = k
        kmers = np.asarray([] if kmers is None else kmers, dtype=np.uint64)
        counts = np.asarray([] if counts is None else counts, dtype=np.int64)
        if kmers.shape != counts.shape or kmers.ndim != 1:
            raise ValueError("kmers and counts must be equal-length vectors")
        if (counts <= 0).any():
            raise ValueError("edge count must be positive")
        if (kmers[1:] <= kmers[:-1]).any():
            raise ValueError("kmers must be strictly increasing")

        # one np.unique over the interleaved (source, target) keys: node
        # ids in order of first appearance over the sorted k-mers
        ends = np.empty(2 * kmers.size, dtype=np.uint64)
        ends[0::2] = kmers >> np.uint64(BITS_PER_BASE)
        ends[1::2] = kmers & np.uint64((1 << self.node_bits) - 1)
        keys, first, inverse = np.unique(
            ends, return_index=True, return_inverse=True
        )
        #: node id of each key in ascending key order
        self.key_order = np.empty(keys.size, dtype=np.int64)
        self.key_order[np.argsort(first)] = np.arange(keys.size)
        self._sorted_keys = keys
        self.node_keys = np.empty_like(keys)
        self.node_keys[self.key_order] = keys
        ids = self.key_order[inverse.ravel()]
        sources, targets = ids[0::2], ids[1::2]
        self.out_degrees = np.bincount(sources, minlength=keys.size)
        self.in_degrees = np.bincount(targets, minlength=keys.size)
        # group the edges by source in node order, k-mer order inside
        order = np.argsort(sources, kind="stable")
        self.kmers = kmers[order]
        self.counts = counts[order]
        self.sources = sources[order]
        self.targets = targets[order]
        self.offsets = np.concatenate(([0], np.cumsum(self.out_degrees)))

    # ----- construction -----------------------------------------------------

    @property
    def node_bases(self) -> int:
        """Bases per node label (k - 1)."""
        return self.k - 1

    @property
    def node_bits(self) -> int:
        """Bits per packed node key."""
        return BITS_PER_BASE * self.node_bases

    @classmethod
    def from_counts(
        cls,
        kmers: np.ndarray,
        counts: np.ndarray,
        k: int,
        min_count: int = 1,
    ) -> "DeBruijnGraph":
        """Build the graph from the hash table: its strictly increasing
        packed k-mers and their frequencies (``PimKmerCounter.counts``),
        keeping the k-mers seen at least ``min_count`` times."""
        if min_count <= 0:
            raise ValueError("min_count must be positive")
        counts = np.asarray(counts)
        keep = counts >= min_count
        return cls(k, np.asarray(kmers)[keep], counts[keep])

    # ----- queries ----------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return int(self.node_keys.size)

    @property
    def num_edges(self) -> int:
        return int(self.kmers.size)

    def node_ids(self, nodes: "Iterable[int] | np.ndarray") -> np.ndarray:
        """Node id of each key, or -1 where the key is not a node."""
        keys = np.asarray(nodes, dtype=np.uint64).ravel()
        ids = np.full(keys.size, -1, dtype=np.int64)
        if self._sorted_keys.size:
            at = np.searchsorted(self._sorted_keys, keys)
            at = np.minimum(at, self._sorted_keys.size - 1)
            hit = self._sorted_keys[at] == keys
            ids[hit] = self.key_order[at[hit]]
        return ids

    # ----- structure analysis --------------------------------------------------------

    def connected_components(self) -> np.ndarray:
        """Weakly connected component label per node id: the smallest
        node id of the node's component, so ascending labels list the
        components in order of their first node.

        Hook-and-jump labelling: every edge hooks the larger of its two
        roots under the smaller, then every label jumps to its root, until
        no edge joins two roots.
        """
        label = np.arange(self.num_nodes)
        while True:
            a, b = label[self.sources], label[self.targets]
            joins = a != b
            if not joins.any():
                break
            np.minimum.at(label, np.maximum(a, b)[joins], np.minimum(a, b)[joins])
            while not np.array_equal(label[label], label):
                label = label[label]
        return label

    def simple_nodes(self) -> np.ndarray:
        """Per node id: one edge in and one out (not branching)."""
        return (self.in_degrees == 1) & (self.out_degrees == 1)


def build_graph_from_sequences(
    sequences: Iterable[DnaSequence], k: int, min_count: int = 1
) -> DeBruijnGraph:
    """Convenience: software count + graph build in one step."""
    packed, _ = packed_kmers_batch(list(sequences), k)
    kmers, counts = np.unique(packed, return_counts=True)
    return DeBruijnGraph.from_counts(kmers, counts, k=k, min_count=min_count)
