"""Stage 2a — de Bruijn graph construction (paper Fig. 5c).

The reconstructed ``DeBruijn(Hashmap, k)`` procedure: for every k-mer
in the hash table, ``node_1 = k_mer[0 .. k-2]`` and ``node_2 =
k_mer[1 .. k-1]`` become vertices and ``(node_1, node_2)`` an edge.
Nodes are (k-1)-mers stored as packed integers; each distinct k-mer
contributes one edge carrying its observed frequency as an attribute
(frequencies below ``min_count`` can be dropped — the standard
error-filtering knob).

The graph is columnar: edges are parallel ``uint64`` k-mer / ``int64``
count / node-id arrays grouped by source (CSR out-edge offsets), nodes
one ``uint64`` key array, degrees ``bincount`` arrays.  Node ids follow
the order in which a walk over the sorted k-mers first meets each node
as source or target, so :meth:`DeBruijnGraph.nodes` and
:meth:`DeBruijnGraph.edges` iterate in that order, which the traversal
and the degree chunks depend on.  :class:`Edge` objects are made only
when :meth:`~DeBruijnGraph.edges` or :meth:`~DeBruijnGraph.out_edges`
is asked for them (Euler/Fleury trails, interval-block partitioning).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.genome.alphabet import BITS_PER_BASE
from repro.genome.kmer import MAX_PACKED_K, packed_kmers_batch, unpack_kmer
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class Edge:
    """One de Bruijn edge: an observed k-mer linking two (k-1)-mers."""

    source: int
    target: int
    kmer: int
    count: int

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("edge count must be positive")


class DeBruijnGraph:
    """A de Bruijn multigraph over packed (k-1)-mer node keys.

    Args:
        k: k-mer length (2..32).
        kmers: the edges' packed k-mers, strictly increasing.
        counts: each k-mer's frequency (positive).

    Edge ``e`` (its index in :meth:`edges` order) runs from node
    ``sources[e]`` to ``targets[e]``; node ``i``'s out-edges are
    ``offsets[i]:offsets[i + 1]``, its key ``node_keys[i]``.
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
        self._edge_objects: "list[Edge] | None" = None

    # ----- construction -----------------------------------------------------

    @property
    def node_bases(self) -> int:
        """Bases per node label (k - 1)."""
        return self.k - 1

    @property
    def node_bits(self) -> int:
        """Bits per packed node key."""
        return BITS_PER_BASE * self.node_bases

    def split_kmer(self, packed_kmer: int) -> tuple[int, int]:
        """(prefix node, suffix node) of a packed k-mer."""
        mask = (1 << self.node_bits) - 1
        prefix = packed_kmer >> BITS_PER_BASE
        suffix = packed_kmer & mask
        return prefix, suffix

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

    def _node_id(self, node: int) -> int:
        if not 0 <= node < 1 << self.node_bits:
            return -1
        return int(self.node_ids([node])[0])

    def nodes(self) -> Iterator[int]:
        return iter(self.node_keys.tolist())

    def _edges(self) -> "list[Edge]":
        """Every edge as an :class:`Edge`, made once on first request."""
        if self._edge_objects is None:
            keys = self.node_keys.tolist()
            self._edge_objects = [
                Edge(source=keys[s], target=keys[t], kmer=kmer, count=count)
                for s, t, kmer, count in zip(
                    self.sources.tolist(),
                    self.targets.tolist(),
                    self.kmers.tolist(),
                    self.counts.tolist(),
                )
            ]
        return self._edge_objects

    def edges(self) -> Iterator[Edge]:
        return iter(self._edges())

    def out_edges(self, node: int) -> list[Edge]:
        i = self._node_id(node)
        if i < 0:
            return []
        return self._edges()[self.offsets[i] : self.offsets[i + 1]]

    def out_degree(self, node: int) -> int:
        i = self._node_id(node)
        return int(self.out_degrees[i]) if i >= 0 else 0

    def in_degree(self, node: int) -> int:
        i = self._node_id(node)
        return int(self.in_degrees[i]) if i >= 0 else 0

    def node_sequence(self, node: int) -> DnaSequence:
        """Decode a node key back into its (k-1)-mer."""
        return unpack_kmer(node, self.node_bases)

    def has_node(self, node: int) -> bool:
        return self._node_id(node) >= 0

    # ----- structure analysis --------------------------------------------------------

    def degree_imbalance(self) -> dict[int, int]:
        """node -> out_degree - in_degree (Euler path endpoints)."""
        delta = self.out_degrees - self.in_degrees
        nonzero = np.flatnonzero(delta)
        return dict(
            zip(self.node_keys[nonzero].tolist(), delta[nonzero].tolist())
        )

    def connected_components(self) -> list[set[int]]:
        """Weakly connected components (undirected reachability), in
        node order of each component's first node.

        Hook-and-jump labelling: every edge hooks the larger of its two
        roots under the smaller, then every label jumps to its root, until
        no edge joins two roots; each component ends labelled by its
        smallest node id.
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
        order = np.argsort(label, kind="stable")
        cuts = np.flatnonzero(np.diff(label[order])) + 1
        keys = self.node_keys[order]
        return [set(part.tolist()) for part in np.split(keys, cuts) if part.size]

    def is_branching(self, node: int) -> bool:
        """True if the node is not a simple pass-through (1 in, 1 out)."""
        return not (self.in_degree(node) == 1 and self.out_degree(node) == 1)

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
