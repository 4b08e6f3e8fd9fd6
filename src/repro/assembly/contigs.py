"""Contig spelling: turning graph paths back into sequences.

A path of edges ``(n0 -> n1 -> ... -> nm)`` over (k-1)-mer nodes spells
the sequence ``n0`` followed by the last base of every subsequent node
— the standard de Bruijn path-to-sequence rule (paper Fig. 5c's
Contig-I/II/III example).  The last base of node ``n_i`` is the last
base of the k-mer on the edge into it, so :func:`spell_walk` spells
every unitig from arrays: its start node unpacked once, then
``kmers[path] & 3``.  :func:`spell_path` does the same for a list of
:class:`~repro.assembly.debruijn.Edge` objects (Euler trails).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.debruijn import DeBruijnGraph, Edge
from repro.assembly.euler import unitig_walk
from repro.genome.alphabet import BITS_PER_BASE
from repro.genome.sequence import DnaSequence


@dataclass(frozen=True)
class Contig:
    """One assembled contig."""

    name: str
    sequence: DnaSequence
    edge_count: int

    def __len__(self) -> int:
        return len(self.sequence)


def spell_path(graph: DeBruijnGraph, path: list[Edge]) -> DnaSequence:
    """Spell the sequence of a non-empty edge path."""
    if not path:
        raise ValueError("cannot spell an empty path")
    for prev, nxt in zip(path, path[1:]):
        if prev.target != nxt.source:
            raise ValueError("edges do not form a connected path")
    first = graph.node_sequence(path[0].source).codes
    last_bases = np.array([edge.kmer & 3 for edge in path], dtype=np.uint8)
    return DnaSequence(np.concatenate((first, last_bases)))


def spell_walk(
    graph: DeBruijnGraph, walk: np.ndarray, bounds: np.ndarray
) -> list[DnaSequence]:
    """Spell every path of a :func:`~repro.assembly.euler.unitig_walk`.

    A path spells its start node, unpacked once, followed by the last
    base (``kmer & 3``) of each of its edges.
    """
    if walk.size == 0:
        return []
    shifts = BITS_PER_BASE * np.arange(
        graph.node_bases - 1, -1, -1, dtype=np.uint64
    )
    heads = graph.node_keys[graph.sources[walk[bounds[:-1]]]]
    head_codes = ((heads[:, None] >> shifts) & np.uint64(3)).astype(np.uint8)
    tails = (graph.kmers[walk] & np.uint64(3)).astype(np.uint8)
    cuts = bounds.tolist()
    return [
        DnaSequence(np.concatenate((head, tails[lo:hi])))
        for head, lo, hi in zip(head_codes, cuts, cuts[1:])
    ]


def _named(
    sequences: list[DnaSequence],
    edge_counts: list[int],
    min_length: int,
    prefix: str,
) -> list[Contig]:
    """Keep sequences of at least ``min_length`` bases, longest first
    (ties in path order), named by rank."""
    kept = [
        (sequence, edges)
        for sequence, edges in zip(sequences, edge_counts)
        if len(sequence) >= min_length
    ]
    kept.sort(key=lambda item: len(item[0]), reverse=True)
    return [
        Contig(name=f"{prefix}{i}", sequence=sequence, edge_count=edges)
        for i, (sequence, edges) in enumerate(kept)
    ]


def contigs_from_paths(
    graph: DeBruijnGraph,
    paths: list[list[Edge]],
    min_length: int = 0,
    prefix: str = "contig",
) -> list[Contig]:
    """Spell every path and keep those of at least ``min_length`` bases."""
    paths = [path for path in paths if path]
    return _named(
        [spell_path(graph, path) for path in paths],
        [len(path) for path in paths],
        min_length,
        prefix,
    )


def assemble_contigs(graph: DeBruijnGraph, min_length: int = 0) -> list[Contig]:
    """Contigs from a de Bruijn graph: its maximal non-branching paths.

    Unitigs are robust to repeats; for the paper's Eulerian trails use
    :func:`contigs_from_paths` over
    :func:`~repro.assembly.euler.eulerian_paths`.

    Args:
        graph: the k-mer graph.
        min_length: drop contigs shorter than this many bases.
    """
    walk, bounds = unitig_walk(graph)
    return _named(
        spell_walk(graph, walk, bounds),
        np.diff(bounds).tolist(),
        min_length,
        "contig",
    )
