"""Stage 2b — graph traversal: Eulerian trails and unitigs.

The paper's ``Traverse(G)`` procedure computes every vertex's in/out
degree with bulk ``PIM_Add`` operations, picks the start vertex, and
runs Fleury's algorithm for the Euler path.  This module implements,
all as walks over the edge ids of the columnar
:class:`~repro.assembly.debruijn.DeBruijnGraph`:

* :func:`euler_walk` — Hierholzer's algorithm (linear time), one trail
  per weakly connected component,
* :func:`fleury_walk` — Fleury's algorithm exactly as the paper's
  pseudo-code names it (quadratic; kept for fidelity and used by the
  tests as an oracle on small graphs),
* :func:`unitig_walk` — maximal non-branching paths, the contig-safe
  decomposition used when the graph has ambiguous branching (repeats):
  one ``next_edge`` array (the sole out-edge of a simple target) is
  followed from every branching node's out-edges, then around each
  isolated cycle.

Each returns ``(walk, bounds)``: path ``i`` is ``walk[bounds[i]:bounds[i
+ 1]]``, and :func:`~repro.assembly.contigs.spell_walk` spells them.
Every distinct k-mer is one traversable edge.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.assembly.debruijn import DeBruijnGraph
from repro.runtime.watchdog import checkpoint


def _trail_starts(graph: DeBruijnGraph) -> Iterator[tuple[int, int]]:
    """``(start node id, edge count)`` of each component with edges, in
    order of the components' first nodes.

    The start is the smallest key with ``out - in == 1`` (open trail),
    else the smallest key with an out-edge (closed tour).

    Raises:
        ValueError: on reaching a component whose degrees admit no
            Eulerian trail (checked lazily, so earlier components are
            walked first).
    """
    n = graph.num_nodes
    labels = graph.connected_components()
    delta = graph.out_degrees - graph.in_degrees
    plus = np.bincount(labels, weights=delta == 1, minlength=n)
    minus = np.bincount(labels, weights=delta == -1, minlength=n)
    skewed = np.bincount(labels, weights=np.abs(delta) > 1, minlength=n)
    feasible = (skewed == 0) & (plus == minus) & (plus <= 1)
    edges = np.bincount(labels[graph.sources], minlength=n)
    start = np.full(n, -1, dtype=np.int64)
    # the open-trail start overrides the closed-tour one
    for mask in (graph.out_degrees > 0, delta == 1):
        ids = np.flatnonzero(mask)
        ids = ids[np.lexsort((graph.node_keys[ids], labels[ids]))]
        first = np.ones(ids.size, dtype=bool)
        first[1:] = labels[ids[1:]] != labels[ids[:-1]]
        start[labels[ids[first]]] = ids[first]
    for root in np.flatnonzero((labels == np.arange(n)) & (edges > 0)).tolist():
        if not feasible[root]:
            raise ValueError("component has no Eulerian trail")
        yield int(start[root]), int(edges[root])


def _walks(
    graph: DeBruijnGraph, trail: Callable[[int, int], list[int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``trail(start, edge count)`` over every component."""
    walk: list[int] = []
    bounds = [0]
    for start, n_edges in _trail_starts(graph):
        walk += trail(start, n_edges)
        bounds.append(len(walk))
    return np.array(walk, dtype=np.int64), np.array(bounds, dtype=np.int64)


def euler_walk(graph: DeBruijnGraph) -> tuple[np.ndarray, np.ndarray]:
    """Hierholzer's algorithm: one Eulerian trail per weakly connected
    component with edges, out-edges taken in CSR order.

    Raises:
        ValueError: if a component admits no Eulerian trail.
    """
    targets = graph.targets.tolist()
    ends = graph.offsets[1:].tolist()
    next_out = graph.offsets[:-1].tolist()

    def hierholzer(start: int, n_edges: int) -> list[int]:
        stack = [start]
        edge_stack: list[int] = []
        trail: list[int] = []
        while stack:
            checkpoint()  # per-step cancellation point (Hierholzer walk)
            node = stack[-1]
            edge = next_out[node]
            if edge < ends[node]:
                next_out[node] = edge + 1
                stack.append(targets[edge])
                edge_stack.append(edge)
            else:
                stack.pop()
                if edge_stack:
                    trail.append(edge_stack.pop())
        if len(trail) != n_edges:
            raise ValueError("component is not edge-connected; no single trail")
        return trail[::-1]

    return _walks(graph, hierholzer)


def fleury_walk(graph: DeBruijnGraph) -> tuple[np.ndarray, np.ndarray]:
    """Fleury's algorithm (paper Fig. 5c names it explicitly), one trail
    per component from the same start as :func:`euler_walk`.

    Never crosses a bridge unless forced: of a node's unused out-edges
    (CSR order) it takes the first whose removal keeps as many nodes
    reachable through unused edges.  O(E^2); a test oracle for small
    graphs.
    """
    sources = graph.sources.tolist()
    targets = graph.targets.tolist()
    offsets = graph.offsets.tolist()
    by_target = np.argsort(graph.targets, kind="stable")
    in_cuts = np.searchsorted(
        graph.targets[by_target], np.arange(graph.num_nodes + 1)
    ).tolist()
    by_target = by_target.tolist()
    used = [False] * graph.num_edges

    def touching(node: int) -> list[int]:
        return (
            list(range(offsets[node], offsets[node + 1]))
            + by_target[in_cuts[node] : in_cuts[node + 1]]
        )

    def undirected_reach(start: int) -> int:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for edge in touching(node):
                if used[edge]:
                    continue
                for nxt in (targets[edge], sources[edge]):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return len(seen)

    def fleury(node: int, n_edges: int) -> list[int]:
        trail: list[int] = []
        for _ in range(n_edges):
            checkpoint()  # per-edge cancellation point (Fleury walk)
            candidates = [
                e for e in range(offsets[node], offsets[node + 1]) if not used[e]
            ]
            if not candidates:
                raise ValueError("stuck before consuming every edge")
            chosen = candidates[0]
            if len(candidates) > 1:
                before = undirected_reach(node)
                for edge in candidates:
                    used[edge] = True
                    after = undirected_reach(node)
                    used[edge] = False
                    if after == before:  # not a bridge
                        chosen = edge
                        break
            used[chosen] = True
            trail.append(chosen)
            node = targets[chosen]
        return trail

    return _walks(graph, fleury)


def unitig_walk(graph: DeBruijnGraph) -> tuple[np.ndarray, np.ndarray]:
    """Maximal non-branching paths as edge ids: the contig-safe
    decomposition.

    Every edge lies on exactly one path.  Edge ``e`` is followed by
    ``next_edge[e]``, the sole out-edge of its target when the target
    is simple (one edge in, one out), else by nothing.  Paths start at
    every out-edge of a branching node, in edge order, then at each
    isolated cycle's first edge.
    """
    simple = graph.simple_nodes()
    targets = graph.targets
    next_edge = np.where(
        simple[targets], graph.offsets[:-1][targets], -1
    ).tolist()
    walk: list[int] = []
    bounds: list[int] = []
    # First pass: every out-edge of a branching node, in edge order;
    # its path runs until a branching target.
    for edge in np.flatnonzero(~simple[graph.sources]).tolist():
        checkpoint()  # per-path cancellation point (unitig extension)
        bounds.append(len(walk))
        while edge >= 0:
            walk.append(edge)
            edge = next_edge[edge]
    walked = np.fromiter(walk, dtype=np.int64, count=len(walk))
    # Second pass: isolated simple cycles, each entered at its first
    # node in node order (edge order groups edges by source node).
    pending = np.ones(graph.num_edges, dtype=bool)
    pending[walked] = False
    cycles: list[int] = []
    for first in np.flatnonzero(pending).tolist():
        if not pending[first]:
            continue
        checkpoint()  # per-path cancellation point (unitig extension)
        bounds.append(len(walk) + len(cycles))
        edge = first
        while True:
            cycles.append(edge)
            pending[edge] = False
            edge = next_edge[edge]
            if edge == first:
                break
    bounds.append(len(walk) + len(cycles))
    return (
        np.concatenate((walked, np.array(cycles, dtype=np.int64))),
        np.array(bounds, dtype=np.int64),
    )
