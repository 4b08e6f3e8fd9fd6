"""The columnar de Bruijn graph against the reference's dict graph.

``reference_impl`` keeps its own dict-of-lists graph, per-edge unitig
extension and spelling.  On random k-mer sets — self-loops, isolated
cycles, branches, and at k=32 k-mers that use the whole 64-bit word —
the columnar graph must iterate the same nodes and edges in the same
order, report the same degrees and components, and walk and spell the
same unitigs.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.assembly.contigs import assemble_contigs
from repro.assembly.debruijn import DeBruijnGraph
from repro.assembly.euler import degree_table, unitig_walk, unitigs
from repro.assembly.hashmap import PimKmerCounter, SoftwareKmerCounter
from repro.assembly.reference_impl import _DictGraph
from repro.core import PimAssembler
from repro.genome.kmer import pack_kmer
from repro.genome.sequence import DnaSequence

bases = st.sampled_from("ACGT")


@st.composite
def kmer_counts(draw):
    """``(k, {packed k-mer: count}, min_count)`` from random pieces."""
    k = draw(st.sampled_from((3, 16, 32)))
    kmers: set[int] = set()
    pieces = draw(st.integers(min_value=0, max_value=5))
    for _ in range(pieces):
        kind = draw(st.sampled_from(("linear", "cycle", "run", "random")))
        if kind == "random":  # loose k-mers anywhere in the word
            kmers.update(
                draw(
                    st.lists(
                        st.integers(0, 4**k - 1), min_size=1, max_size=8
                    )
                )
            )
            continue
        if kind == "run":  # homopolymer: a self-loop node
            text = draw(bases) * (k + draw(st.integers(0, 3)))
        else:
            text = "".join(draw(st.lists(bases, min_size=k, max_size=k + 40)))
            if kind == "cycle":  # circular sequence: an isolated cycle
                text += text[: k - 1]
        kmers.update(
            pack_kmer(DnaSequence(text[i : i + k]))
            for i in range(len(text) - k + 1)
        )
    counts = {
        kmer: draw(st.integers(min_value=1, max_value=3))
        for kmer in sorted(kmers)
    }
    return k, counts, draw(st.integers(min_value=1, max_value=2))


@given(kmer_counts())
@settings(max_examples=150, deadline=None)
def test_columnar_graph_equals_dict_graph(case):
    k, counts, min_count = case
    graph = DeBruijnGraph.from_counts(
        np.array(list(counts), dtype=np.uint64),
        np.array(list(counts.values())),
        k=k,
        min_count=min_count,
    )
    ref = _DictGraph(counts, k, min_count)

    assert graph.num_nodes == ref.num_nodes
    assert graph.num_edges == ref.num_edges
    assert list(graph.nodes()) == list(ref.nodes())
    assert [(e.source, e.target, e.kmer) for e in graph.edges()] == list(
        ref.edges()
    )
    assert degree_table(graph) == {
        node: (ref.indegree[node], len(ref.out[node])) for node in ref.nodes()
    }
    for node in ref.nodes():
        assert graph.in_degree(node) == ref.indegree[node]
        assert graph.out_degree(node) == len(ref.out[node])
        assert graph.is_branching(node) == (not ref.simple(node))
    assert graph.connected_components() == ref.components()

    paths = ref.unitigs()
    assert [[e.kmer for e in path] for path in unitigs(graph)] == paths
    walk, bounds = unitig_walk(graph)
    assert graph.kmers[walk].tolist() == [kmer for p in paths for kmer in p]
    assert [str(c.sequence) for c in assemble_contigs(graph)] == [
        str(ref.spell(path))
        for path in sorted(paths, key=len, reverse=True)
    ]


def test_full_word_kmers_keep_their_top_bits():
    """k=32 k-mers at and above 2**63 (a leading T) stay exact."""
    rng = np.random.default_rng(32)
    text = "T" + "".join(rng.choice(list("ACGT"), size=50))
    counts = {
        pack_kmer(DnaSequence(text[i : i + 32])): 1
        for i in range(len(text) - 31)
    }
    assert max(counts) >= 2**63
    kmers = np.array(sorted(counts), dtype=np.uint64)
    graph = DeBruijnGraph.from_counts(kmers, np.ones(kmers.size, np.int64), k=32)
    assert sorted(e.kmer for e in graph.edges()) == sorted(counts)
    assert [str(c.sequence) for c in assemble_contigs(graph)] == [text]


def graph_from_counter(counts: Counter, k: int, min_count: int) -> DeBruijnGraph:
    """The ``Counter`` -> ``fromiter`` -> ``argsort`` build that the
    array handoff replaced, kept as the reference."""
    kmers = np.fromiter(counts.keys(), dtype=np.uint64, count=len(counts))
    freqs = np.fromiter(counts.values(), dtype=np.int64, count=len(counts))
    keep = freqs >= min_count
    kmers, freqs = kmers[keep], freqs[keep]
    order = np.argsort(kmers)
    return DeBruijnGraph(k, kmers[order], freqs[order])


@given(
    reads=st.lists(st.text("ACGT", min_size=4, max_size=60), max_size=6),
    engine=st.sampled_from(("scalar", "bulk")),
    min_count=st.integers(min_value=1, max_value=2),
)
@settings(max_examples=30, deadline=None)
def test_table_readback_graph_equals_counter_graph(reads, engine, min_count):
    """The graph built from ``PimKmerCounter.counts()`` arrays is the
    graph the dict path builds from the same reads."""
    k = 7
    sequences = [DnaSequence(text) for text in reads]
    counter = PimKmerCounter(PimAssembler.small(subarrays=8), k, engine=engine)
    counter.add_sequences(sequences)
    software = SoftwareKmerCounter(k)
    for sequence in sequences:
        software.add_sequence(sequence)
    graph = DeBruijnGraph.from_counts(*counter.counts(), k=k, min_count=min_count)
    ref = graph_from_counter(software.counts(), k, min_count)
    for name in ("node_keys", "kmers", "counts", "sources", "targets", "offsets"):
        np.testing.assert_array_equal(getattr(graph, name), getattr(ref, name))
