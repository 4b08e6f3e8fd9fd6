"""Interval-block graph partitioning across chips."""

import numpy as np
import pytest

from repro.assembly.debruijn import build_graph_from_sequences
from repro.genome.reference import synthetic_chromosome
from repro.mapping.graph_partition import BlockId, IntervalBlockPartition


@pytest.fixture(scope="module")
def graph():
    return build_graph_from_sequences([synthetic_chromosome(3000, seed=61)], 9)


class TestPartitioning:
    def test_every_edge_in_exactly_one_block(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=4)
        ids = np.concatenate(
            [partition.block_edges(b) for b in partition.nonempty_blocks()]
        )
        assert sorted(ids.tolist()) == list(range(graph.num_edges))

    def test_block_index_consistency(self, graph):
        """Each edge's block is (interval(source), interval(target))."""
        partition = IntervalBlockPartition.from_graph(graph, intervals=4)
        keys = graph.node_keys
        for block in partition.nonempty_blocks():
            for edge in partition.block_edges(block).tolist():
                source = int(keys[graph.sources[edge]])
                target = int(keys[graph.targets[edge]])
                assert partition.vertex_interval(source) == block.source_interval
                assert partition.vertex_interval(target) == block.destination_interval

    def test_m_squared_block_space(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=5)
        assert partition.num_blocks == 25
        for block in partition.nonempty_blocks():
            assert 0 <= block.source_interval < 5
            assert 0 <= block.destination_interval < 5

    def test_intervals_roughly_balanced(self, graph):
        """Hash partitioning spreads vertices uniformly."""
        partition = IntervalBlockPartition.from_graph(graph, intervals=4)
        sizes = partition.interval_sizes()
        assert sum(sizes) == graph.num_nodes
        mean = graph.num_nodes / 4
        assert all(abs(s - mean) / mean < 0.25 for s in sizes)

    def test_single_interval_degenerates(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=1)
        assert partition.nonempty_blocks() == [BlockId(0, 0)]

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            IntervalBlockPartition(intervals=0)

    def test_block_id_validation(self):
        with pytest.raises(ValueError):
            BlockId(source_interval=-1, destination_interval=0)


class TestChipAssignment:
    def test_destination_major_allocation(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=4)
        assignment = partition.chip_assignment(chips=4)
        for block, chip in assignment.items():
            assert chip == block.destination_interval % 4

    def test_load_balance_sums_to_edges(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=4)
        loads = partition.load_balance()
        assert sum(loads) == graph.num_edges

    def test_fewer_chips_than_intervals(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=8)
        assignment = partition.chip_assignment(chips=2)
        assert set(assignment.values()) <= {0, 1}

    def test_rejects_bad_chip_count(self, graph):
        partition = IntervalBlockPartition.from_graph(graph, intervals=2)
        with pytest.raises(ValueError):
            partition.chip_assignment(chips=0)
