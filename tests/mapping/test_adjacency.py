"""Adjacency mapping and the Fig. 8 in-memory degree computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.assembly.debruijn import build_graph_from_sequences
from repro.core import PimAssembler
from repro.genome.sequence import DnaSequence
from repro.mapping.adjacency import (
    adjacency_rows_for_chunk,
    degree_vectors_pim,
    wallace_column_sum,
)


class TestWallaceColumnSum:
    def test_single_row(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        row = np.array([1, 0, 1] + [0] * 13, dtype=np.uint8)
        assert (wallace_column_sum(pim, [row]) == row).all()

    @given(
        n_rows=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_numpy_sum(self, n_rows, seed):
        pim = PimAssembler.small(subarrays=1, rows=256, cols=16)
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, 2, 16).astype(np.uint8) for _ in range(n_rows)]
        result = wallace_column_sum(pim, rows)
        assert (result == np.sum(rows, axis=0)).all()

    def test_pads_short_rows(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        short = np.array([1, 1], dtype=np.uint8)
        result = wallace_column_sum(pim, [short, short])
        assert result[0] == 2 and result[1] == 2
        assert (result[2:] == 0).all()

    def test_rejects_empty(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        with pytest.raises(ValueError):
            wallace_column_sum(pim, [])

    def test_rejects_wide_rows(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        with pytest.raises(ValueError):
            wallace_column_sum(pim, [np.zeros(17, dtype=np.uint8)])

    def test_uses_carry_save_commands(self):
        """The reduction must actually run on TRA + latch sums."""
        pim = PimAssembler.small(subarrays=1, rows=128, cols=16)
        rng = np.random.default_rng(1)
        rows = [rng.integers(0, 2, 16).astype(np.uint8) for _ in range(9)]
        wallace_column_sum(pim, rows)
        cmds = pim.stats.totals().commands
        assert cmds.get("AAP3", 0) > 0  # carry cycles
        assert cmds.get("SUM", 0) > 0  # latch-assisted sums

    def test_scratch_exhaustion(self):
        pim = PimAssembler.small(subarrays=1, rows=16, cols=8)
        rows = [np.ones(8, dtype=np.uint8)] * 12
        with pytest.raises(MemoryError):
            wallace_column_sum(pim, rows)


class TestAdjacencyRows:
    def test_in_direction(self):
        g = build_graph_from_sequences([DnaSequence("ACGT")], 3)
        nodes = sorted(g.node_keys.tolist())
        rows = adjacency_rows_for_chunk(g, nodes, "in")
        total = np.sum(rows, axis=0)
        assert np.array_equal(total, g.in_degrees[g.node_ids(nodes)])

    def test_out_direction(self):
        g = build_graph_from_sequences([DnaSequence("ACGTAC")], 3)
        nodes = sorted(g.node_keys.tolist())
        rows = adjacency_rows_for_chunk(g, nodes, "out")
        total = np.sum(rows, axis=0)
        assert np.array_equal(total, g.out_degrees[g.node_ids(nodes)])

    def test_rejects_bad_direction(self):
        g = build_graph_from_sequences([DnaSequence("ACGT")], 3)
        with pytest.raises(ValueError):
            adjacency_rows_for_chunk(g, g.node_keys.tolist(), "sideways")

    def test_chunk_restriction(self):
        g = build_graph_from_sequences([DnaSequence("ACGTTGCA")], 3)
        nodes = sorted(g.node_keys.tolist())
        chunk = nodes[:2]
        rows = adjacency_rows_for_chunk(g, chunk, "in")
        assert all(r.size == 2 for r in rows)


class TestDegreeVectorsPim:
    @pytest.mark.parametrize("text", ["ACGTACGT", "AACCGGTT", "ACGTTGCAAC"])
    def test_matches_graph_degrees(self, text):
        g = build_graph_from_sequences([DnaSequence(text)], 3)
        pim = PimAssembler.small(subarrays=1, rows=256, cols=16)
        in_deg, out_deg = degree_vectors_pim(pim, g)
        assert in_deg.dtype == out_deg.dtype == np.int64
        assert np.array_equal(in_deg, g.in_degrees)
        assert np.array_equal(out_deg, g.out_degrees)

    def test_chunking_over_row_width(self):
        """More vertices than row columns forces multiple chunks."""
        g = build_graph_from_sequences(
            [DnaSequence("ACGTACGTTGCAGGAATTCCGGATCCTTAA")], 4
        )
        pim = PimAssembler.small(subarrays=1, rows=256, cols=8)
        assert g.num_nodes > 8
        in_deg, out_deg = degree_vectors_pim(pim, g)
        assert np.array_equal(in_deg, g.in_degrees)
        assert np.array_equal(out_deg, g.out_degrees)

    @pytest.mark.parametrize("engine", ["warp", "Bulk", ""])
    def test_rejects_unknown_engine(self, engine):
        """An unknown engine is refused before anything is charged."""
        g = build_graph_from_sequences([DnaSequence("ACGTACGT")], 3)
        pim = PimAssembler.small(subarrays=1, rows=256, cols=16)
        with pytest.raises(ValueError, match="engine"):
            degree_vectors_pim(pim, g, engine=engine)
        assert not pim.stats.totals().commands
