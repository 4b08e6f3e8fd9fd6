"""De Bruijn graph construction and structure queries."""

import numpy as np
import pytest

from repro.assembly.debruijn import DeBruijnGraph, build_graph_from_sequences
from repro.genome.kmer import count_kmers, pack_kmer, unpack_kmer
from repro.genome.sequence import DnaSequence


def graph_of(text, k, min_count=1):
    return build_graph_from_sequences([DnaSequence(text)], k, min_count)


def table_of(text, k):
    """``(kmers, counts)`` of a sequence, k-mers increasing."""
    counts = count_kmers(DnaSequence(text), k)
    kmers = sorted(counts)
    return np.array(kmers, dtype=np.uint64), np.array([counts[x] for x in kmers])


class TestConstruction:
    def test_split_kmer(self):
        g = graph_of("ACGT", 4)
        source, target = g.node_keys[[g.sources[0], g.targets[0]]].tolist()
        assert unpack_kmer(source, 3) == DnaSequence("ACG")
        assert unpack_kmer(target, 3) == DnaSequence("CGT")

    def test_linear_sequence(self):
        g = graph_of("ACGTAC", 3)
        # 4 distinct 3-mers -> 4 edges
        assert g.num_edges == 4
        assert g.num_nodes == len(set(str(DnaSequence("ACGTAC"))[i:i+2]
                                       for i in range(5)))

    def test_from_counts_respects_min_count(self):
        # ACG occurs twice; the k-mers of the "T" tail occur once.
        kmers, counts = table_of("ACGACGT", 3)
        full = DeBruijnGraph.from_counts(kmers, counts, k=3)
        filtered = DeBruijnGraph.from_counts(kmers, counts, k=3, min_count=2)
        assert filtered.num_edges < full.num_edges
        assert (filtered.counts >= 2).all()

    def test_from_counts_rejects_bad_min_count(self):
        with pytest.raises(ValueError):
            DeBruijnGraph.from_counts([], [], k=3, min_count=0)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            DeBruijnGraph(k=1)

    def test_edge_carries_count(self):
        g = graph_of("ACGACG", 3)
        acg = g.kmers == pack_kmer(DnaSequence("ACG"))
        assert g.counts[acg].tolist() == [2]

    def test_deterministic_edge_order(self):
        """The sorted table fixes the edge order: unsorted k-mers are
        refused rather than sorted again."""
        kmers, counts = table_of("ACGTACGTT", 3)
        graph = DeBruijnGraph.from_counts(kmers, counts, k=3)
        assert sorted(graph.kmers.tolist()) == kmers.tolist()
        with pytest.raises(ValueError, match="strictly increasing"):
            DeBruijnGraph.from_counts(kmers[::-1], counts[::-1], k=3)


class TestDegrees:
    def test_degrees_of_linear_path(self):
        g = graph_of("ACGT", 3)  # ACG -> CGT : AC->CG->GT
        ids = g.node_ids([pack_kmer(DnaSequence(n)) for n in ("AC", "CG", "GT")])
        assert g.out_degrees[ids].tolist() == [1, 1, 0]
        assert g.in_degrees[ids].tolist() == [0, 1, 1]

    def test_degree_imbalance_endpoints(self):
        g = graph_of("ACGTT", 3)
        imbalance = g.out_degrees - g.in_degrees
        assert sorted(imbalance[imbalance != 0].tolist()) == [-1, 1]

    def test_balanced_cycle_has_no_imbalance(self):
        # ACGAC: 3-mers ACG CGA GAC -> cycle AC->CG->GA->AC
        g = graph_of("ACGAC", 3)
        assert (g.out_degrees == g.in_degrees).all()

    def test_is_branching(self):
        g = graph_of("AACAG", 3)  # AAC ACA CAG: AA->AC->CA->AG
        aa, ac = g.node_ids([pack_kmer(DnaSequence(n)) for n in ("AA", "AC")])
        assert not g.simple_nodes()[aa]  # in 0 / out 1
        assert g.simple_nodes()[ac]  # in 1 / out 1


class TestComponents:
    def test_single_component(self):
        g = graph_of("ACGTACGT", 3)
        assert (g.connected_components() == 0).all()

    def test_two_components(self):
        g = build_graph_from_sequences(
            [DnaSequence("AAAA"), DnaSequence("CCCC")], 3
        )
        assert np.unique(g.connected_components()).size == 2

    def test_components_partition_nodes(self):
        g = build_graph_from_sequences(
            [DnaSequence("ACGTAC"), DnaSequence("GGTTGG")], 3
        )
        labels = g.connected_components()
        assert labels.shape == (g.num_nodes,)
        # each label is its component's smallest node id
        assert (labels <= np.arange(g.num_nodes)).all()
        assert (labels[labels] == labels).all()
        # an edge never crosses two components
        assert (labels[g.sources] == labels[g.targets]).all()
