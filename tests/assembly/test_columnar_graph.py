"""The columnar de Bruijn graph against the reference's dict graph.

``reference_impl`` keeps its own dict-of-lists graph, per-edge unitig
extension and spelling.  On random k-mer sets — self-loops, isolated
cycles, branches, and at k=32 k-mers that use the whole 64-bit word —
the columnar graph must hold the same nodes and edges in the same
order, report the same degrees and components, walk the same Euler
trails and unitigs, and spell the same contigs.  Fleury's walk, the
paper-named oracle, must use Hierholzer's edges.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.assembly.contigs import assemble_contigs
from repro.assembly.debruijn import DeBruijnGraph
from repro.assembly.euler import euler_walk, fleury_walk, unitig_walk
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
    keys = graph.node_keys
    assert keys.tolist() == list(ref.nodes())
    assert list(
        zip(
            keys[graph.sources].tolist(),
            keys[graph.targets].tolist(),
            graph.kmers.tolist(),
        )
    ) == list(ref.edges())
    assert graph.in_degrees.tolist() == [ref.indegree[n] for n in ref.nodes()]
    assert graph.out_degrees.tolist() == [len(ref.out[n]) for n in ref.nodes()]
    assert graph.simple_nodes().tolist() == [ref.simple(n) for n in ref.nodes()]

    labels = graph.connected_components()
    assert [
        set(keys[labels == root].tolist()) for root in np.unique(labels)
    ] == ref.components()

    paths = ref.unitigs()
    walk, bounds = unitig_walk(graph)
    cuts = bounds.tolist()
    assert [
        graph.kmers[walk[lo:hi]].tolist() for lo, hi in zip(cuts, cuts[1:])
    ] == paths
    assert [str(c.sequence) for c in assemble_contigs(graph)] == [
        str(ref.spell(path))
        for path in sorted(paths, key=len, reverse=True)
    ]

    try:
        trails = ref.euler_trails()
    except ValueError:
        with pytest.raises(ValueError):
            euler_walk(graph)
        with pytest.raises(ValueError):
            fleury_walk(graph)
        return
    walk, bounds = euler_walk(graph)
    cuts = bounds.tolist()
    assert [
        graph.kmers[walk[lo:hi]].tolist() for lo, hi in zip(cuts, cuts[1:])
    ] == trails
    fleury, fleury_bounds = fleury_walk(graph)
    assert fleury_bounds.tolist() == cuts
    for lo, hi in zip(cuts, cuts[1:]):
        trail = fleury[lo:hi]
        assert (graph.sources[trail[1:]] == graph.targets[trail[:-1]]).all()
    assert Counter(fleury.tolist()) == Counter(walk.tolist())


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
    assert sorted(graph.kmers.tolist()) == sorted(counts)
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
