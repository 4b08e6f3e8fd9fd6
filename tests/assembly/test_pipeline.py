"""End-to-end pipeline integration: PIM vs golden model vs reference."""

import pytest

from repro.assembly import (
    assemble,
    assemble_contigs,
    assemble_with_pim,
    evaluate_assembly,
)
from repro.assembly.pipeline import PimPipeline
from repro.core import PimAssembler
from repro.genome import ReadSimulator, synthetic_chromosome


@pytest.fixture(scope="module")
def small_case():
    reference = synthetic_chromosome(400, seed=21)
    sim = ReadSimulator(read_length=50, seed=22)
    reads = sim.sample(reference, sim.reads_for_coverage(400, 20))
    return reference, reads


class TestEquivalenceWithGoldenModel:
    def test_same_contigs(self, small_case):
        reference, reads = small_case
        pim_result = assemble_with_pim(reads, k=13)
        sw_result = assemble(reads, k=13)
        assert sorted(str(c.sequence) for c in pim_result.contigs) == sorted(
            str(c.sequence) for c in sw_result.contigs
        )

    def test_same_graph_shape(self, small_case):
        _, reads = small_case
        pim_result = assemble_with_pim(reads, k=13)
        sw_result = assemble(reads, k=13)
        assert pim_result.graph.num_nodes == sw_result.graph.num_nodes
        assert pim_result.graph.num_edges == sw_result.graph.num_edges
        assert pim_result.kmer_table_size == sw_result.kmer_table_size


class TestReferenceRecovery:
    def test_high_coverage_recovers_reference(self, small_case):
        reference, reads = small_case
        result = assemble_with_pim(reads, k=13)
        report = evaluate_assembly(result.contigs, reference)
        assert report.genome_fraction > 0.95
        assert report.misassemblies == 0

    def test_euler_mode_on_clean_genome(self):
        reference = synthetic_chromosome(200, seed=33, repeats=None)
        sim = ReadSimulator(read_length=60, seed=34)
        reads = sim.sample(reference, sim.reads_for_coverage(200, 25))
        pim = PimAssembler.small(subarrays=8, rows=256, cols=64)
        result = PimPipeline(pim, k=15).run(reads)
        contigs = assemble_contigs(result.graph, mode="euler")
        report = evaluate_assembly(contigs, reference)
        assert report.genome_fraction > 0.9


class TestAccounting:
    def test_phase_totals_populated(self, small_case):
        _, reads = small_case
        result = assemble_with_pim(reads, k=13)
        assert result.hashmap.time_ns > 0
        assert result.traverse.time_ns > 0
        assert result.total_time_ns == pytest.approx(
            result.hashmap.time_ns
            + result.debruijn.time_ns
            + result.traverse.time_ns
        )
        assert result.total_energy_nj > 0

    def test_hashmap_dominates(self, small_case):
        """The paper: k-mer analysis takes the largest time share."""
        _, reads = small_case
        result = assemble_with_pim(reads, k=13)
        assert result.hashmap.time_ns > result.debruijn.time_ns
        assert result.hashmap.time_ns > result.traverse.time_ns

    def test_commands_attributed_to_phases(self, small_case):
        _, reads = small_case
        pim = PimAssembler.small(subarrays=8, rows=256, cols=64)
        PimPipeline(pim, k=13).run(reads)
        hashmap_cmds = pim.stats.totals("hashmap").commands
        assert hashmap_cmds.get("AAP2", 0) > 0  # comparisons
        traverse_cmds = pim.stats.totals("traverse").commands
        assert traverse_cmds.get("AAP3", 0) > 0  # degree carry cycles


class TestOptions:
    def test_min_contig_length(self, small_case):
        _, reads = small_case
        result = assemble_with_pim(reads, k=13, min_contig_length=30)
        assert all(len(c) >= 30 for c in result.contigs)

    def test_rejects_bad_k(self):
        pim = PimAssembler.small()
        with pytest.raises(ValueError):
            PimPipeline(pim, k=1)

class TestResilientPipeline:
    def test_no_policy_means_no_report(self, small_case):
        _, reads = small_case
        result = assemble_with_pim(reads, k=13)
        assert result.resilience is None

    def test_clean_run_report_is_clean_but_charged(self, small_case):
        """Without faults the report shows zero events but real
        verification overhead — protection is never free."""
        _, reads = small_case
        result = assemble_with_pim(reads, k=13, resilience="detect")
        report = result.resilience
        assert report is not None and report.clean
        assert report.totals.detected == 0
        assert report.totals.verified_ops > 0
        assert report.totals.verify_time_ns > 0
        assert report.totals.scrubbed_rows > 0
        assert set(report.stages) == {"hashmap", "debruijn", "traverse"}

    def test_protected_run_recovers_baseline_contigs(self):
        """The tentpole guarantee at 15% variation: detect-retry-remap
        reproduces the fault-free contigs bit-identically, policy off
        does not."""
        from repro.assembly.pipeline import _sized_device
        from repro.core.faults import FaultModel

        reference = synthetic_chromosome(500, seed=700)
        sim = ReadSimulator(read_length=80, seed=701)
        reads = sim.sample(reference, sim.reads_for_coverage(500, 8))

        def contigs(variation, policy):
            pim = _sized_device(reads, 9)
            if variation:
                pim.controller.faults = FaultModel.from_variation(
                    variation, seed=702
                )
            result = PimPipeline(
                pim, k=9, min_count=2, resilience=policy
            ).run(reads)
            return result, sorted(str(c.sequence) for c in result.contigs)

        _, baseline = contigs(0.0, None)
        _, off = contigs(15.0, "off")
        protected_result, protected = contigs(15.0, "detect-retry-remap")

        assert off != baseline
        assert protected == baseline
        report = protected_result.resilience
        assert report.totals.corrected > 0
        assert report.totals.verify_time_ns > 0
        hashmap = report.stages["hashmap"]
        assert hashmap.detected > 0 and hashmap.uncorrected == 0


class TestTraverseScratch:
    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_degrees_avoid_a_quarantined_subarray(self, small_case, engine):
        """The degree scratch space skips retired sub-arrays: nothing in
        the traverse stage touches (0, 0, 0), and the degrees match an
        unquarantined run's."""
        from repro.assembly.pipeline import PipelineState, _sized_device
        from repro.core.trace import CommandTrace

        _, reads = small_case
        retired = (0, 0, 0)

        def traverse(quarantine):
            pim = _sized_device(reads, 13)
            pim.protect("off")
            if quarantine:
                pim.resilience.quarantine(retired)
            pipeline = PimPipeline(pim, k=13, engine=engine)
            state = PipelineState()
            pipeline.run_hashmap(reads, state)
            pipeline.run_debruijn(state)
            trace = CommandTrace()
            pim.controller.attach_trace(trace)
            pipeline.run_traverse(state)
            touched = {entry.subarray for entry in trace} | {
                tuple(key) for _, key, _, _ in trace.charges
            }
            return state.degrees, touched

        degrees, touched = traverse(quarantine=True)
        clean_degrees, clean_touched = traverse(quarantine=False)
        assert retired in clean_touched
        assert touched and retired not in touched
        assert degrees == clean_degrees
