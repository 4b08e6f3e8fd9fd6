"""Eulerian traversal: Hierholzer, Fleury, unitigs, invariants."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.assembly.debruijn import build_graph_from_sequences
from repro.assembly.euler import euler_walk, fleury_walk, unitig_walk
from repro.genome.kmer import pack_kmer
from repro.genome.sequence import DnaSequence
from repro.runtime.watchdog import Watchdog

dna = st.text(alphabet="ACGT", min_size=6, max_size=60)


def graph_of(text, k=3):
    return build_graph_from_sequences([DnaSequence(text)], k)


def paths(walk, bounds):
    cuts = bounds.tolist()
    return [walk[lo:hi] for lo, hi in zip(cuts, cuts[1:])]


def assert_valid_trails(graph, walk, bounds):
    """Each trail must chain properly, every edge used exactly once."""
    for path in paths(walk, bounds):
        assert path.size
        assert (graph.sources[path[1:]] == graph.targets[path[:-1]]).all()
    assert sorted(walk.tolist()) == list(range(graph.num_edges))


def single_trail(graph):
    """The one trail of a graph, or None when it has no single trail."""
    if np.unique(graph.connected_components()).size != 1:
        return None
    try:
        walk, _ = euler_walk(graph)
    except ValueError:
        return None
    return walk


class TestFeasibility:
    def test_linear_sequence_has_trail(self):
        walk, bounds = euler_walk(graph_of("ACGTT"))
        assert bounds.tolist() == [0, walk.size]

    def test_infeasible_degrees(self):
        # Two sequences sharing nodes s.t. imbalance exceeds 1 at a node
        g = build_graph_from_sequences(
            [DnaSequence("AACG"), DnaSequence("AACT"), DnaSequence("AACC")], 3
        )
        with pytest.raises(ValueError, match="no Eulerian trail"):
            euler_walk(g)
        with pytest.raises(ValueError, match="no Eulerian trail"):
            fleury_walk(g)

    def test_start_node_is_imbalanced_vertex(self):
        g = graph_of("ACGTT")
        walk, _ = euler_walk(g)
        start = g.sources[walk[0]]
        assert g.out_degrees[start] - g.in_degrees[start] == 1


class TestHierholzer:
    @given(dna)
    @settings(max_examples=40, deadline=None)
    def test_trail_from_any_sequence(self, text):
        """A graph built from one sequence always admits a trail that
        uses every distinct k-mer exactly once."""
        g = graph_of(text, 4)
        walk = single_trail(g)
        if walk is None:
            return  # repeats can disconnect or unbalance after dedup
        assert_valid_trails(g, walk, np.array([0, walk.size]))

    def test_cycle_graph(self):
        g = graph_of("ACGAC")  # closed tour
        walk, bounds = euler_walk(g)
        assert_valid_trails(g, walk, bounds)
        assert g.sources[walk[0]] == g.targets[walk[-1]]

    def test_eulerian_paths_per_component(self):
        # node sets {AC, CG, GT} and {GG, GA, AA} are disjoint
        g = build_graph_from_sequences(
            [DnaSequence("ACGT"), DnaSequence("GGAA")], 3
        )
        walk, bounds = euler_walk(g)
        assert bounds.size - 1 == 2
        assert_valid_trails(g, walk, bounds)

    def test_raises_at_first_infeasible_component(self):
        """Components are walked in first-node order and checked as they
        are reached: {TT, TG, GA} is walked (one poll per step) before
        {CA, AA, AC, AG}, whose CA has three out-edges, raises."""
        g = build_graph_from_sequences(
            [DnaSequence(s) for s in ("TTGA", "CAA", "CAC", "CAG")], 3
        )
        labels = g.connected_components()
        assert labels[g.node_ids([pack_kmer(DnaSequence("TT"))])] == 0
        ticks = []
        with Watchdog(on_tick=ticks.append).active():
            with pytest.raises(ValueError, match="no Eulerian trail"):
                euler_walk(g)
        assert len(ticks) == 2 * 2 + 1

    def test_rejects_infeasible(self):
        g = build_graph_from_sequences(
            [DnaSequence("AACG"), DnaSequence("AACT"), DnaSequence("AACC")], 3
        )
        with pytest.raises(ValueError):
            euler_walk(g)


class TestFleury:
    @given(dna)
    @settings(max_examples=20, deadline=None)
    def test_agrees_with_hierholzer_on_edge_multiset(self, text):
        g = graph_of(text, 4)
        hier = single_trail(g)
        if hier is None:
            return
        fleury, bounds = fleury_walk(g)
        assert Counter(g.kmers[hier].tolist()) == Counter(g.kmers[fleury].tolist())
        assert_valid_trails(g, fleury, bounds)

    def test_simple_known_graph(self):
        g = graph_of("ACGTT")
        assert_valid_trails(g, *fleury_walk(g))


class TestUnitigs:
    def test_every_edge_in_exactly_one_unitig(self):
        g = graph_of("ACGTACGTTGCA", 4)
        walk, _ = unitig_walk(g)
        assert sorted(walk.tolist()) == list(range(g.num_edges))

    def test_linear_graph_single_unitig(self):
        g = graph_of("ACGTTC", 3)
        walk, bounds = unitig_walk(g)
        assert bounds.tolist() == [0, g.num_edges]

    def test_branch_splits_unitigs(self):
        g = build_graph_from_sequences(
            [DnaSequence("AACGG"), DnaSequence("AACTT")], 3
        )
        _, bounds = unitig_walk(g)
        assert bounds.size - 1 >= 2

    def test_isolated_cycle_is_captured(self):
        g = graph_of("ACGAC", 3)  # pure cycle, no branching nodes
        walk, _ = unitig_walk(g)
        assert walk.size == g.num_edges

    @given(dna)
    @settings(max_examples=30, deadline=None)
    def test_unitig_interior_nodes_are_simple(self, text):
        g = graph_of(text, 4)
        simple = g.simple_nodes()
        for path in paths(*unitig_walk(g)):
            interior = g.targets[path[:-1]]
            interior = interior[interior != g.sources[path[0]]]
            assert simple[interior].all()


class TestHelpers:
    def test_degree_table_matches_graph(self):
        """The degree arrays count each node's edge ends."""
        g = graph_of("ACGTAC", 3)
        for node in range(g.num_nodes):
            assert g.in_degrees[node] == (g.targets == node).sum()
            assert g.out_degrees[node] == (g.sources == node).sum()
