"""Batched degree computation against the per-chunk reduction loop.

``degree_vectors_pim(engine="bulk")`` takes the degrees from the
graph's arrays and charges every chunk and direction's reduction in one
``flush_segments`` call.  The reference below is the loop it replaced:
one pass over the edges in edge-id order bucketing them by chunk, then
per chunk and direction dense adjacency rows and one reduction, charged
with one ``charge`` per mnemonic, the verify charge and a ``flush``.
The two must leave identical degree arrays, ledgers, traces,
``pim.batch.*`` metrics and watchdog ticks.  Scalar and live sum/TRA
fault rates go through ``wallace_column_sum`` per chunk; there the
reduced rows themselves must match the reference's.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.assembly.debruijn import DeBruijnGraph, build_graph_from_sequences
from repro.core import PimAssembler
from repro.core.faults import FaultModel
from repro.core.trace import CommandTrace
from repro.genome.sequence import DnaSequence
from repro.mapping import adjacency
from repro.mapping.adjacency import (
    _wallace_schedule,
    degree_vectors_pim,
    wallace_column_sum,
)
from repro.observability.metrics import MetricsRegistry
from repro.runtime.watchdog import Watchdog, checkpoint


# ----- the per-chunk loop, kept as the reference -----------------------------


def _bucket_edges(graph, nodes, width):
    place = {node: divmod(i, width) for i, node in enumerate(nodes)}
    n_chunks = -(-len(nodes) // width)
    buckets = {
        direction: [({}, [], []) for _ in range(n_chunks)]
        for direction in ("in", "out")
    }
    ins, outs = buckets["in"], buckets["out"]
    keys = graph.node_keys.tolist()
    for source, target in zip(graph.sources.tolist(), graph.targets.tolist()):
        source, target = keys[source], keys[target]
        for chunks, key_node, chunk_node in (
            (ins, source, target),
            (outs, target, source),
        ):
            spot = place.get(chunk_node)
            if spot is not None:
                row_of, row_ids, cols = chunks[spot[0]]
                row_ids.append(row_of.setdefault(key_node, len(row_of)))
                cols.append(spot[1])
    return buckets


def _dense_rows(bucket, width):
    row_of, row_ids, cols = bucket
    rows = np.zeros((len(row_of), width), dtype=np.uint8)
    rows[row_ids, cols] = 1
    return list(rows)


def _charged_sum(pim, rows, subarray_key):
    """One reduction charged as the per-chunk bulk path charged it."""
    faults = pim.controller.faults
    if faults is not None and faults.enabled and (
        faults.sum_rate > 0.0 or faults.tra_rate > 0.0
    ):
        return wallace_column_sum(pim, rows, subarray_key)
    checkpoint()
    width = pim.row_bits
    staged = [np.pad(np.asarray(r, np.uint8), (0, width - len(r))) for r in rows]
    total = np.stack(staged).astype(np.int64).sum(axis=0)
    compressions, bits_needed, zero_planes = _wallace_schedule(len(staged))
    pairs = compressions + bits_needed
    ctrl = pim.controller
    key = (subarray_key,)
    sched = ctrl.scheduler
    sched.charge("MEM_WR", key, (len(staged) + zero_planes,))
    sched.charge("LATCH_LD", key, (compressions,))
    sched.charge("AAP1", key, (1,))
    sched.charge("SUM", key, (pairs,))
    sched.charge("AAP3", key, (pairs,))
    sched.charge("MEM_RD", key, (bits_needed + 1,))
    if ctrl._verifying() is not None:
        ctrl._charge_verify(2 * pairs)
    sched.flush()
    return total


def reference_degrees(pim, graph, subarray_key=(0, 0, 0), engine="scalar", seen=None):
    """Degree dicts by node key, returned as arrays by node id."""
    nodes = sorted(graph.node_keys.tolist())
    width = pim.row_bits
    buckets = _bucket_edges(graph, nodes, width)
    in_deg, out_deg = {}, {}
    for index, lo in enumerate(range(0, len(nodes), width)):
        chunk = nodes[lo : lo + width]
        for direction, out in (("in", in_deg), ("out", out_deg)):
            checkpoint()
            rows = _dense_rows(buckets[direction][index], len(chunk))
            if seen is not None and rows:
                seen.append(rows)
            if not rows:
                sums = np.zeros(width, dtype=np.int64)
            elif engine == "bulk":
                sums = _charged_sum(pim, rows, subarray_key)
            else:
                sums = wallace_column_sum(pim, rows, subarray_key)
            for i, node in enumerate(chunk):
                out[node] = int(sums[i])
    keys = graph.node_keys.tolist()
    return tuple(
        np.array([degree[key] for key in keys], dtype=np.int64)
        for degree in (in_deg, out_deg)
    )


# ----- observation -----------------------------------------------------------


def build_pim(policy=None, faults=None, cols=16):
    pim = PimAssembler.small(subarrays=2, rows=512, cols=cols)
    if policy is not None:
        pim.protect(policy)
    if faults is not None:
        pim.controller.faults = faults()
    return pim


def observe(compute, graph, engine, **device):
    pim = build_pim(**device)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    registry = MetricsRegistry()
    ticks = []
    watchdog = Watchdog(on_tick=ticks.append)
    with registry.activate(), watchdog.active(), pim.phase("traverse"):
        degrees = compute(pim, graph, (0, 0, 1), engine=engine)
    stats = pim.stats
    return {
        "degrees": [(d.dtype, d.tolist()) for d in degrees],
        "ledger": {
            phase: (
                float(stats.totals(phase).time_ns).hex(),
                float(stats.totals(phase).energy_nj).hex(),
                dict(stats.totals(phase).commands),
            )
            for phase in [None, *stats.phases()]
        },
        "charges": trace.charges,
        "flushes": trace.flushes,
        "entries": [(e.mnemonic, e.subarray, e.rows) for e in trace],
        "metrics": {
            name: value
            for name, value in registry.snapshot().items()
            if name.startswith("pim.batch.")
        },
        "ticks": len(ticks),
        "resilience": (
            None if pim.resilience is None else pim.resilience.counts()
        ),
    }


def random_graph(seed, length, k, min_count=1):
    rng = np.random.default_rng(seed)
    text = "".join(rng.choice(list("ACGT"), size=length))
    return build_graph_from_sequences([DnaSequence(text)], k, min_count)


def assert_same(graph, engine="bulk", **device):
    batched = observe(degree_vectors_pim, graph, engine, **device)
    looped = observe(reference_degrees, graph, engine, **device)
    assert batched == looped
    return batched


# ----- tests -----------------------------------------------------------------


class TestBatchedMatchesLoop:
    @pytest.mark.parametrize("seed,length,k", [(9, 90, 6), (3, 400, 9), (5, 700, 5)])
    def test_multi_chunk_graphs(self, seed, length, k):
        graph = random_graph(seed, length, k)
        assert graph.num_nodes > 3 * 16
        out = assert_same(graph)
        assert out["metrics"]["pim.batch.flushes"]["value"] >= 6

    def test_matches_graph_degrees(self):
        graph = random_graph(4, 300, 7)
        in_deg, out_deg = degree_vectors_pim(build_pim(), graph, engine="bulk")
        assert np.array_equal(in_deg, graph.in_degrees)
        assert np.array_equal(out_deg, graph.out_degrees)
        # copies: the caller cannot corrupt the graph through them
        assert not np.shares_memory(in_deg, graph.in_degrees)

    def test_wide_rows_single_chunk(self):
        assert_same(random_graph(2, 40, 5), cols=64)

    def test_verify_charges_detect_retry_remap(self):
        out = assert_same(random_graph(7, 300, 6), policy="detect-retry-remap")
        assert "VRF_AAP" in out["ledger"][None][2]

    def test_copy_faults_stay_batched(self):
        assert_same(
            random_graph(8, 300, 6),
            faults=lambda: FaultModel(copy_rate=0.05, seed=3),
        )

    def test_empty_and_tiny_graphs(self):
        assert_same(DeBruijnGraph(k=4))
        assert_same(build_graph_from_sequences([DnaSequence("AAAA")], 3))
        assert_same(build_graph_from_sequences([DnaSequence("ACGAC")], 3))


class TestScalarFallback:
    """Per-chunk reductions: the same rows, in the same order."""

    @pytest.mark.parametrize(
        "engine,faults",
        [
            ("scalar", None),
            ("bulk", lambda: FaultModel(sum_rate=0.02, seed=11)),
            ("bulk", lambda: FaultModel(tra_rate=0.02, seed=12)),
            ("scalar", lambda: FaultModel.from_variation(15.0, seed=13)),
        ],
    )
    def test_matches_loop(self, engine, faults):
        graph = random_graph(9, 90, 6)
        assert_same(graph, engine=engine, faults=faults)

    def test_live_faults_under_detect_retry_remap(self):
        assert_same(
            random_graph(10, 120, 6),
            policy="detect-retry-remap",
            faults=lambda: FaultModel.from_variation(15.0, seed=14),
        )

    def test_reduced_rows_match_per_chunk_scan(self, monkeypatch):
        graph = random_graph(9, 90, 6)
        reduced = []
        raw = adjacency.wallace_column_sum

        def capture(pim, rows, *args, **kwargs):
            reduced.append([np.array(row) for row in rows])
            return raw(pim, rows, *args, **kwargs)

        monkeypatch.setattr(adjacency, "wallace_column_sum", capture)
        degree_vectors_pim(build_pim(), graph, engine="scalar")
        expected = []
        reference_degrees(build_pim(), graph, seen=expected)
        assert len(expected) >= 6
        assert len(reduced) == len(expected)
        for got, want in zip(reduced, expected):
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
