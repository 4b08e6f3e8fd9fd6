"""Cross-module integration: the whole stack exercised end to end."""

import numpy as np
import pytest

from repro import PimAssembler, assemble, assemble_with_pim
from repro.assembly import evaluate_assembly
from repro.assembly.pipeline import PimPipeline
from repro.eval import (
    chr14_workload,
    headline_ratios,
    run_area_study,
    run_reliability_table,
    run_transient_study,
)
from repro.eval.execution import ExecutionModel
from repro.genome import ReadSimulator, synthetic_chromosome
from repro.genome.io_fasta import FastaRecord, read_fasta, write_fasta
from repro.platforms import assembly_platforms


class TestFullAssemblyFlow:
    """Reference genome -> reads -> PIM assembly -> evaluation."""

    def test_fasta_to_contigs_roundtrip(self, tmp_path):
        reference = synthetic_chromosome(600, seed=91)
        ref_path = tmp_path / "ref.fa"
        write_fasta(ref_path, [FastaRecord("chr", str(reference))])

        loaded = read_fasta(ref_path)[0].to_dna()
        sim = ReadSimulator(read_length=60, seed=92)
        reads = sim.sample(loaded, sim.reads_for_coverage(len(loaded), 20))

        result = assemble_with_pim(reads, k=15)
        report = evaluate_assembly(result.contigs, reference)
        assert report.genome_fraction > 0.95
        assert report.misassemblies == 0

        out_path = tmp_path / "contigs.fa"
        write_fasta(
            out_path,
            [FastaRecord(c.name, str(c.sequence)) for c in result.contigs],
        )
        assert len(read_fasta(out_path)) == len(result.contigs)

    def test_pim_and_software_agree_across_k(self):
        reference = synthetic_chromosome(350, seed=93)
        sim = ReadSimulator(read_length=45, seed=94)
        reads = sim.sample(reference, sim.reads_for_coverage(350, 18))
        for k in (9, 13, 17):
            pim_result = assemble_with_pim(reads, k=k)
            sw_result = assemble(reads, k=k)
            assert sorted(str(c.sequence) for c in pim_result.contigs) == sorted(
                str(c.sequence) for c in sw_result.contigs
            ), f"k={k}"

    def test_repeat_genome_fragments_into_unitigs(self):
        """Repeats shorter than reads but longer than k must create
        branches — and the unitig mode must stay misassembly-free."""
        from repro.genome.reference import RepeatSpec

        reference = synthetic_chromosome(
            1000,
            seed=95,
            repeats=RepeatSpec(
                dispersed_fraction=0.25, dispersed_element_length=120
            ),
        )
        sim = ReadSimulator(read_length=60, seed=96)
        reads = sim.sample(reference, sim.reads_for_coverage(1000, 25))
        result = assemble(reads, k=15)
        report = evaluate_assembly(result.contigs, reference)
        assert report.misassemblies == 0
        assert report.genome_fraction > 0.8

class TestSimulatedTimingConsistency:
    def test_pipeline_time_scales_with_reads(self):
        reference = synthetic_chromosome(300, seed=99)
        sim = ReadSimulator(read_length=40, seed=100)
        small = sim.sample(reference, 20)
        large = sim.sample(reference, 60)
        r_small = assemble_with_pim(
            small, k=13, pim=PimAssembler.small(subarrays=8, rows=256, cols=64)
        )
        r_large = assemble_with_pim(
            large, k=13, pim=PimAssembler.small(subarrays=8, rows=256, cols=64)
        )
        assert r_large.hashmap.time_ns > r_small.hashmap.time_ns

    def test_hashmap_command_mix_matches_algorithm(self):
        """Every k-mer query issues exactly one temp MEM_WR; misses add
        one AAP1 table insert on top of the staging copies."""
        pim = PimAssembler.small(subarrays=4, rows=256, cols=64)
        reference = synthetic_chromosome(200, seed=101)
        pipeline = PimPipeline(pim, k=11)
        pipeline.run([reference])
        n_queries = reference.kmer_count(11)
        hashmap_cmds = pim.stats.totals("hashmap").commands
        # temp insert + counter writes both use MEM_WR
        assert hashmap_cmds["MEM_WR"] >= n_queries


class TestMultiChipMapping:
    """Interval-block partitioning driving per-chip functional devices."""

    def test_partitioned_degree_computation_matches_whole_graph(self):
        from repro.assembly import build_graph_from_sequences
        from repro.mapping import IntervalBlockPartition, degree_vectors_pim
        from repro.mapping.graph_partition import BlockId

        reference = synthetic_chromosome(600, seed=950)
        graph = build_graph_from_sequences([reference], 9)

        chips = 2
        partition = IntervalBlockPartition.from_graph(graph, intervals=chips)
        assignment = partition.chip_assignment(chips)

        # one functional device per chip; each computes the degree
        # contributions of its own edge blocks
        from repro.assembly.debruijn import DeBruijnGraph

        in_total = np.zeros(graph.num_nodes, dtype=np.int64)
        out_total = np.zeros(graph.num_nodes, dtype=np.int64)
        for chip in range(chips):
            owned = [
                partition.block_edges(block)
                for block, owner in assignment.items()
                if owner == chip
            ]
            edges = np.concatenate(owned) if owned else np.empty(0, int)
            edges = edges[np.argsort(graph.kmers[edges])]
            chip_graph = DeBruijnGraph.from_counts(
                graph.kmers[edges], graph.counts[edges], k=9
            )
            if chip_graph.num_edges == 0:
                continue
            device = PimAssembler.small(subarrays=1, rows=512, cols=64)
            in_deg, out_deg = degree_vectors_pim(device, chip_graph)
            ids = graph.node_ids(chip_graph.node_keys)
            assert (ids >= 0).all()
            in_total[ids] += in_deg
            out_total[ids] += out_deg

        assert np.array_equal(in_total, graph.in_degrees)
        assert np.array_equal(out_total, graph.out_degrees)

    def test_every_block_lands_on_its_destination_chip(self):
        from repro.assembly import build_graph_from_sequences
        from repro.mapping import IntervalBlockPartition

        reference = synthetic_chromosome(400, seed=951)
        graph = build_graph_from_sequences([reference], 9)
        partition = IntervalBlockPartition.from_graph(graph, intervals=4)
        assignment = partition.chip_assignment(4)
        for block, chip in assignment.items():
            assert chip == block.destination_interval % 4


class TestPaperScaleModels:
    def test_functional_and_analytic_use_same_cycle_costs(self):
        """The analytic compare cost must equal what the functional
        controller charges for one staged scan step."""
        from repro.platforms import pim_assembler

        analytic = pim_assembler()
        pim = PimAssembler.small()
        a = pim.store_row(np.ones(32, dtype=np.uint8))
        b = pim.store_row(np.ones(32, dtype=np.uint8))
        pim.reset_stats()
        des = a.with_row(pim.device.subarray_at(a).compute_row(3))
        pim.controller.xnor_rows(a, b, des)
        functional_ns = pim.stats.totals().time_ns
        assert functional_ns == pytest.approx(analytic.compare_ns())

    def test_all_experiments_run(self):
        """Every paper artefact regenerates without error."""
        assert headline_ratios()["xnor_vs_cpu"] > 1
        assert run_area_study().within_claim
        assert run_transient_study().all_patterns_correct
        table = run_reliability_table(trials=2000)
        assert table.all_orderings_hold
        model = ExecutionModel(chr14_workload(16))
        results = [model.run(p) for p in assembly_platforms()]
        assert len(results) == 5
