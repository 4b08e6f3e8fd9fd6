"""Stage 2b — graph traversal: Eulerian paths and unitigs.

The paper's ``Traverse(G)`` procedure computes every vertex's in/out
degree with bulk ``PIM_Add`` operations, picks the start vertex, and
runs Fleury's algorithm for the Euler path.  This module implements:

* :func:`eulerian_path` — Hierholzer's algorithm (linear time; the
  production traversal),
* :func:`fleury_path` — Fleury's algorithm exactly as the paper's
  pseudo-code names it (quadratic; kept for fidelity and used by the
  tests as a cross-check on small graphs),
* :func:`unitig_walk` — maximal non-branching paths, the contig-safe
  decomposition used when the graph has ambiguous branching (repeats),
  as edge-id arrays: one ``next_edge`` array (the sole out-edge of a
  simple target) is followed from every branching node's out-edges,
  then around each isolated cycle; :func:`unitigs` returns the same
  paths as :class:`~repro.assembly.debruijn.Edge` lists.

All of them consume :class:`~repro.assembly.debruijn.DeBruijnGraph`
and treat each distinct k-mer as one traversable edge.  The Euler and
Fleury walks use the graph's on-demand :class:`Edge` objects; the
unitig walk and :func:`degree_table` use its arrays only.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Iterator

import numpy as np

from repro.assembly.debruijn import DeBruijnGraph, Edge
from repro.runtime.watchdog import checkpoint


def find_start_node(graph: DeBruijnGraph, component: set[int]) -> int:
    """The Euler-path start vertex of one component.

    A node with ``out - in == 1`` if one exists (open trail), otherwise
    any node with outgoing edges (closed tour).
    """
    start_candidates = [
        node
        for node in component
        if graph.out_degree(node) - graph.in_degree(node) == 1
    ]
    if start_candidates:
        return min(start_candidates)
    with_out = [n for n in component if graph.out_degree(n) > 0]
    if not with_out:
        raise ValueError("component has no edges")
    return min(with_out)


def has_eulerian_path(graph: DeBruijnGraph, component: set[int]) -> bool:
    """Euler-trail feasibility test for one weakly connected component."""
    plus_one = minus_one = 0
    for node in component:
        delta = graph.out_degree(node) - graph.in_degree(node)
        if delta == 1:
            plus_one += 1
        elif delta == -1:
            minus_one += 1
        elif delta != 0:
            return False
    return (plus_one, minus_one) in ((0, 0), (1, 1))


def eulerian_path(graph: DeBruijnGraph, component: set[int] | None = None) -> list[Edge]:
    """Hierholzer's algorithm over one component (default: whole graph).

    Raises:
        ValueError: if the component admits no Eulerian trail.
    """
    if component is None:
        components = graph.connected_components()
        if len(components) != 1:
            raise ValueError(
                f"graph has {len(components)} components; traverse each "
                "separately (see eulerian_paths)"
            )
        component = components[0]
    if not has_eulerian_path(graph, component):
        raise ValueError("component has no Eulerian trail")

    next_index: dict[int, int] = defaultdict(int)
    out_lists = {node: graph.out_edges(node) for node in component}
    start = find_start_node(graph, component)

    stack: list[int] = [start]
    edge_stack: list[Edge] = []
    trail: list[Edge] = []
    while stack:
        checkpoint()  # per-step cancellation point (Hierholzer walk)
        node = stack[-1]
        edges = out_lists.get(node, [])
        if next_index[node] < len(edges):
            edge = edges[next_index[node]]
            next_index[node] += 1
            stack.append(edge.target)
            edge_stack.append(edge)
        else:
            stack.pop()
            if edge_stack:
                trail.append(edge_stack.pop())
    trail.reverse()

    total_edges = sum(len(graph.out_edges(n)) for n in component)
    if len(trail) != total_edges:
        raise ValueError("component is not edge-connected; no single trail")
    return trail


def eulerian_paths(graph: DeBruijnGraph) -> list[list[Edge]]:
    """One Eulerian trail per weakly connected component."""
    trails = []
    for component in graph.connected_components():
        if any(graph.out_degree(n) for n in component):
            trails.append(eulerian_path(graph, component))
    return trails


def fleury_path(graph: DeBruijnGraph, component: set[int] | None = None) -> list[Edge]:
    """Fleury's algorithm (paper Fig. 5c names it explicitly).

    Never crosses a bridge unless forced.  O(E^2); intended for small
    graphs and as a test oracle against :func:`eulerian_path`.
    """
    if component is None:
        components = graph.connected_components()
        if len(components) != 1:
            raise ValueError("fleury_path expects a single component")
        component = components[0]
    if not has_eulerian_path(graph, component):
        raise ValueError("component has no Eulerian trail")

    remaining: dict[int, list[Edge]] = {
        node: graph.out_edges(node) for node in component
    }
    used: set[int] = set()  # id()s of consumed Edge objects

    # Pre-index reverse adjacency for the undirected reachability.
    reverse: dict[int, list[Edge]] = defaultdict(list)
    for node in component:
        for edge in remaining[node]:
            reverse[edge.target].append(edge)

    def undirected_reach(start: int) -> int:
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for edge in remaining.get(node, []) + reverse.get(node, []):
                if id(edge) in used:
                    continue
                for nxt in (edge.target, edge.source):
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        return len(seen)

    node = find_start_node(graph, component)
    trail: list[Edge] = []
    total_edges = sum(len(remaining[n]) for n in component)
    for _ in range(total_edges):
        checkpoint()  # per-edge cancellation point (Fleury walk)
        candidates = [e for e in remaining[node] if id(e) not in used]
        if not candidates:
            raise ValueError("stuck before consuming every edge")
        chosen = None
        if len(candidates) == 1:
            chosen = candidates[0]
        else:
            before = undirected_reach(node)
            for edge in candidates:
                used.add(id(edge))
                after = undirected_reach(node)
                used.discard(id(edge))
                if after >= before - 1 and after >= 1:
                    # not a bridge (removal keeps the rest reachable)
                    if after == before:
                        chosen = edge
                        break
            if chosen is None:
                chosen = candidates[0]
        used.add(id(chosen))
        trail.append(chosen)
        node = chosen.target
    return trail


def unitig_walk(graph: DeBruijnGraph) -> tuple[np.ndarray, np.ndarray]:
    """Maximal non-branching paths as edge ids (see :func:`unitigs`).

    Returns ``(walk, bounds)``: path ``i`` is ``walk[bounds[i]:bounds[i
    + 1]]``, edge ids in :meth:`DeBruijnGraph.edges` order.  Edge ``e``
    is followed by ``next_edge[e]``, the sole out-edge of its target
    when the target is simple (one edge in, one out), else by nothing.
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


def unitigs(graph: DeBruijnGraph) -> list[list[Edge]]:
    """Maximal non-branching paths (the contig-safe decomposition).

    Every edge appears in exactly one unitig.  Paths start at branching
    nodes (or cycle entry points) and extend while the interior nodes
    are simple (in = out = 1).
    """
    walk, bounds = unitig_walk(graph)
    edges = list(graph.edges())
    path_of = walk.tolist()
    cuts = bounds.tolist()
    return [
        [edges[e] for e in path_of[lo:hi]] for lo, hi in zip(cuts, cuts[1:])
    ]


def degree_table(graph: DeBruijnGraph) -> dict[int, tuple[int, int]]:
    """node -> (in_degree, out_degree): the quantity the paper's
    traversal computes with bulk PIM_Add over adjacency rows (Fig. 8)."""
    return dict(
        zip(
            graph.node_keys.tolist(),
            zip(graph.in_degrees.tolist(), graph.out_degrees.tolist()),
        )
    )


def path_edge_multiset(path: list[Edge]) -> Counter:
    """Multiset of k-mers along a path (test invariant helper)."""
    return Counter(edge.kmer for edge in path)


def iter_path_nodes(path: list[Edge]) -> Iterator[int]:
    """Nodes visited along a path, including the start node."""
    if not path:
        return
    yield path[0].source
    for edge in path:
        yield edge.target
