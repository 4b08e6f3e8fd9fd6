"""Contig spelling: turning graph paths back into sequences.

A path of edges ``(n0 -> n1 -> ... -> nm)`` over (k-1)-mer nodes spells
the sequence ``n0`` followed by the last base of every subsequent node
— the standard de Bruijn path-to-sequence rule (paper Fig. 5c's
Contig-I/II/III example).  The last base of node ``n_i`` is the last
base of the k-mer on the edge into it, so :func:`spell_walk` spells
every path of an edge-id walk (unitigs, Euler or Fleury trails) from
arrays: its start node unpacked once, then ``kmers[path] & 3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.assembly.debruijn import DeBruijnGraph
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


def spell_walk(
    graph: DeBruijnGraph, walk: np.ndarray, bounds: np.ndarray
) -> list[DnaSequence]:
    """Spell every path of an edge-id walk
    (:mod:`~repro.assembly.euler`'s ``(walk, bounds)``).

    A path spells its start node, unpacked once, followed by the last
    base (``kmer & 3``) of each of its edges.

    Raises:
        ValueError: if ``bounds`` marks a path with no edges.
    """
    if walk.size == 0:
        return []
    if np.any(np.diff(bounds) <= 0):
        raise ValueError("walk has an empty path: every path needs an edge")
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


def assemble_contigs(graph: DeBruijnGraph, min_length: int = 0) -> list[Contig]:
    """Contigs from a de Bruijn graph: its maximal non-branching paths.

    Unitigs are robust to repeats; the paper's Eulerian trails spell
    as ``spell_walk(graph, *euler_walk(graph))``.

    Args:
        graph: the k-mer graph.
        min_length: drop contigs shorter than this many bases.
    """
    walk, bounds = unitig_walk(graph)
    kept = [
        (sequence, edges)
        for sequence, edges in zip(
            spell_walk(graph, walk, bounds), np.diff(bounds).tolist()
        )
        if len(sequence) >= min_length
    ]
    # longest first, ties in path order, named by rank
    kept.sort(key=lambda item: len(item[0]), reverse=True)
    return [
        Contig(name=f"contig{i}", sequence=sequence, edge_count=edges)
        for i, (sequence, edges) in enumerate(kept)
    ]
