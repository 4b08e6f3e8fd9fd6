"""Contig spelling and extraction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.assembly.contigs import (
    assemble_contigs,
    contigs_from_paths,
    spell_path,
)
from repro.assembly.debruijn import build_graph_from_sequences
from repro.assembly.euler import eulerian_path, eulerian_paths, unitigs
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", min_size=8, max_size=80)


def graph_of(text, k=4):
    return build_graph_from_sequences([DnaSequence(text)], k)


class TestSpellPath:
    def test_spells_original_sequence(self):
        text = "ACGTTGCA"
        g = graph_of(text, 4)
        trail = eulerian_path(g)
        assert str(spell_path(g, trail)) == text

    @given(dna)
    @settings(max_examples=30, deadline=None)
    def test_node_unique_sequences_reconstruct(self, text):
        """When every (k-1)-mer is distinct the Euler trail is unique
        and spelling it recovers the input exactly."""
        k = 5
        seq = DnaSequence(text)
        node_mers = [str(m) for m in seq.kmers(k - 1)]
        if len(set(node_mers)) != len(node_mers):
            return  # a node repeats: multiple trails may exist
        g = graph_of(text, k)
        trail = eulerian_path(g)
        assert str(spell_path(g, trail)) == text

    @given(dna)
    @settings(max_examples=30, deadline=None)
    def test_spelled_trail_preserves_kmer_multiset(self, text):
        """Any Euler trail spells a sequence with exactly the input's
        set of distinct k-mers (the weaker, always-true invariant)."""
        k = 5
        seq = DnaSequence(text)
        kmers = {str(m) for m in seq.kmers(k)}
        if len(kmers) != seq.kmer_count(k):
            return  # duplicate k-mers collapse; trail may not exist
        g = graph_of(text, k)
        components = g.connected_components()
        if len(components) != 1:
            return
        from repro.assembly.euler import has_eulerian_path

        if not has_eulerian_path(g, components[0]):
            return
        trail = eulerian_path(g)
        spelled = spell_path(g, trail)
        assert {str(m) for m in spelled.kmers(k)} == kmers
        assert len(spelled) == len(seq)

    def test_rejects_empty_path(self):
        g = graph_of("ACGT", 3)
        with pytest.raises(ValueError):
            spell_path(g, [])

    def test_rejects_disconnected_edges(self):
        g = graph_of("ACGTAGGC", 3)
        edges = list(g.edges())
        disconnected = [edges[0], edges[-1]]
        if disconnected[0].target != disconnected[1].source:
            with pytest.raises(ValueError):
                spell_path(g, disconnected)


class TestContigExtraction:
    def test_unitig_mode_covers_every_kmer(self):
        text = "ACGTACGTTGCAGG"
        k = 4
        g = graph_of(text, k)
        contigs = assemble_contigs(g)
        total_kmers = sum(c.edge_count for c in contigs)
        assert total_kmers == g.num_edges

    def test_euler_mode_on_clean_graph(self):
        text = "ACGTTGCA"
        g = graph_of(text, 4)
        contigs = contigs_from_paths(g, eulerian_paths(g))
        assert len(contigs) == 1
        assert str(contigs[0].sequence) == text

    def test_min_length_filter(self):
        g = graph_of("ACGTACGTTGCAGG", 4)
        all_contigs = assemble_contigs(g)
        filtered = assemble_contigs(g, min_length=6)
        assert all(len(c) >= 6 for c in filtered)
        assert len(filtered) <= len(all_contigs)

    def test_contigs_sorted_longest_first(self):
        g = graph_of("ACGTACGTTGCAGGAATTCC", 4)
        contigs = assemble_contigs(g)
        lengths = [len(c) for c in contigs]
        assert lengths == sorted(lengths, reverse=True)

    def test_contig_names_are_rank_ordered(self):
        g = graph_of("ACGTACGTTGCAGG", 4)
        contigs = assemble_contigs(g)
        assert [c.name for c in contigs] == [
            f"contig{i}" for i in range(len(contigs))
        ]

    def test_contigs_from_paths_skips_empty(self):
        g = graph_of("ACGT", 3)
        paths = unitigs(g) + [[]]
        contigs = contigs_from_paths(g, paths)
        assert all(c.edge_count > 0 for c in contigs)
