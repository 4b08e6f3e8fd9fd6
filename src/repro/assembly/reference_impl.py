"""Software baseline assembler (the golden model).

A straightforward dictionary-based de Bruijn assembler with no PIM
involvement — the CPU baseline the functional tests compare the
PIM-mapped pipeline against, and the kind of tool (Velvet-style) the
paper describes as the status quo for de novo assembly.

It keeps its own graph, walks and spelling — a dict from each (k-1)-mer
node to its out-edge k-mers, per-edge unitig extension, one base per
edge — and shares no graph or traversal code with the pipeline's
columnar :mod:`repro.assembly.debruijn` path, so comparing the two is
an independent check.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.assembly.contigs import Contig
from repro.assembly.hashmap import SoftwareKmerCounter
from repro.genome.reads import Read
from repro.genome.sequence import DnaSequence


class _DictGraph:
    """node -> out-edge k-mers, nodes in insertion order over the
    sorted k-mers, each node's edges in k-mer order."""

    def __init__(self, counts: Mapping[int, int], k: int, min_count: int) -> None:
        if min_count <= 0:
            raise ValueError("min_count must be positive")
        self.k = k
        self.mask = (1 << 2 * (k - 1)) - 1
        self.out: dict[int, list[int]] = {}
        self.indegree: Counter = Counter()
        for kmer, count in sorted(counts.items()):
            if count >= min_count:
                self.out.setdefault(kmer >> 2, []).append(kmer)
                self.out.setdefault(kmer & self.mask, [])
                self.indegree[kmer & self.mask] += 1

    @property
    def num_nodes(self) -> int:
        return len(self.out)

    @property
    def num_edges(self) -> int:
        return sum(self.indegree.values())

    def nodes(self) -> Iterator[int]:
        return iter(self.out)

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """(source, target, k-mer) per edge."""
        for source, kmers in self.out.items():
            for kmer in kmers:
                yield source, kmer & self.mask, kmer

    def simple(self, node: int) -> bool:
        return self.indegree[node] == 1 and len(self.out[node]) == 1

    def components(self) -> list[set[int]]:
        """Weakly connected components, by first node in node order."""
        neighbours: dict[int, set[int]] = {node: set() for node in self.out}
        for source, target, _ in self.edges():
            neighbours[source].add(target)
            neighbours[target].add(source)
        seen: set[int] = set()
        components = []
        for start in self.out:
            if start in seen:
                continue
            component, stack = set(), [start]
            while stack:
                node = stack.pop()
                if node not in component:
                    component.add(node)
                    stack.extend(neighbours[node] - component)
            seen |= component
            components.append(component)
        return components

    def unitigs(self) -> list[list[int]]:
        """Maximal non-branching paths as k-mer lists: first from every
        branching node's out-edges, then around isolated cycles."""
        consumed: set[int] = set()

        def extend(kmer: int) -> list[int]:
            path, start = [kmer], kmer >> 2
            consumed.add(kmer)
            node = kmer & self.mask
            while self.simple(node) and self.out[node][0] not in consumed:
                kmer = self.out[node][0]
                path.append(kmer)
                consumed.add(kmer)
                node = kmer & self.mask
                if node == start:
                    break
            return path

        paths = []
        for branching_only in (True, False):
            for node, kmers in self.out.items():
                if branching_only and self.simple(node):
                    continue
                for kmer in kmers:
                    if kmer not in consumed:
                        paths.append(extend(kmer))
        return paths

    def euler_trails(self) -> list[list[int]]:
        """One Hierholzer trail per component that has edges."""
        trails = []
        for component in self.components():
            if not any(self.out[n] for n in component):
                continue
            delta = {n: len(self.out[n]) - self.indegree[n] for n in component}
            if sorted(d for d in delta.values() if d) not in ([], [-1, 1]):
                raise ValueError("component has no Eulerian trail")
            opens = [n for n in component if delta[n] == 1]
            start = min(opens or [n for n in component if self.out[n]])
            used = {n: 0 for n in component}
            stack, edge_stack, trail = [start], [], []
            while stack:
                node = stack[-1]
                if used[node] < len(self.out[node]):
                    kmer = self.out[node][used[node]]
                    used[node] += 1
                    stack.append(kmer & self.mask)
                    edge_stack.append(kmer)
                else:
                    stack.pop()
                    if edge_stack:
                        trail.append(edge_stack.pop())
            if len(trail) != sum(len(self.out[n]) for n in component):
                raise ValueError("component is not edge-connected")
            trails.append(trail[::-1])
        return trails

    def spell(self, path: list[int]) -> DnaSequence:
        """The start node's k-1 bases, then each k-mer's last base."""
        start = path[0] >> 2
        head = [(start >> 2 * i) & 3 for i in range(self.k - 2, -1, -1)]
        tail = [kmer & 3 for kmer in path]
        return DnaSequence(np.array(head + tail, dtype=np.uint8))


@dataclass(frozen=True)
class SoftwareAssemblyResult:
    """Everything the software pipeline produced."""

    contigs: list[Contig]
    graph: _DictGraph
    kmer_table_size: int


def assemble(
    reads: "Iterable[Read] | Sequence[DnaSequence]",
    k: int,
    min_count: int = 1,
    mode: str = "unitig",
    min_contig_length: int = 0,
) -> SoftwareAssemblyResult:
    """End-to-end software assembly.

    Args:
        reads: :class:`Read` objects or raw sequences.
        k: k-mer length.
        min_count: k-mer frequency threshold for graph edges.
        mode: contig extraction mode (``"unitig"`` or ``"euler"``).
        min_contig_length: drop contigs shorter than this.
    """
    counter = SoftwareKmerCounter(k)
    for item in reads:
        sequence = item.sequence if isinstance(item, Read) else item
        counter.add_sequence(sequence)
    graph = _DictGraph(counter.counts(), k, min_count)
    if mode == "unitig":
        paths = graph.unitigs()
    elif mode == "euler":
        paths = graph.euler_trails()
    else:
        raise ValueError(f"unknown contig mode {mode!r}")
    spelled = [(graph.spell(path), len(path)) for path in paths]
    kept = [item for item in spelled if len(item[0]) >= min_contig_length]
    kept.sort(key=lambda item: len(item[0]), reverse=True)
    contigs = [
        Contig(name=f"contig{i}", sequence=sequence, edge_count=edges)
        for i, (sequence, edges) in enumerate(kept)
    ]
    return SoftwareAssemblyResult(
        contigs=contigs, graph=graph, kmer_table_size=len(counter)
    )
