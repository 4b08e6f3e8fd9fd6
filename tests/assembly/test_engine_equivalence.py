"""Property tests: the bulk engine is bit-identical to the scalar one.

The equivalence contract (:mod:`repro.core.bitplane`) promises that for
a fixed seed both engines produce the same k-mer tables, contigs,
resilience event counts and per-mnemonic command counts — only the
modeled time (gang makespan vs serial sum) may differ.  These tests
exercise that contract over randomized read sets, seeds and device
shapes, including the mid-batch error paths.
"""

import numpy as np
import pytest

from repro.assembly.hashmap import PimKmerCounter
from repro.assembly.pipeline import assemble_with_pim
from repro.core import PimAssembler
from repro.core.faults import FaultModel
from repro.errors import TableFullError
from repro.genome.reads import ReadSimulator
from repro.genome.reference import synthetic_chromosome
from repro.genome.sequence import DnaSequence
from repro.mapping.adjacency import (
    _charge_wallace,
    degree_vectors_pim,
    wallace_column_sum,
)


def random_reads(seed, n_reads=12, length=50):
    rng = np.random.default_rng(seed)
    return [
        DnaSequence("".join(rng.choice(list("ACGT"), size=length)))
        for _ in range(n_reads)
    ]


def table_state(counter, pim):
    """Everything a workload can observe about the hash table."""
    rows = [pim.device.subarray_at(key).snapshot() for key in counter._keys]
    return dict(zip(*counter.counts())), len(counter), rows


class TestHashmapEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 1234])
    def test_counts_rows_and_commands_match(self, seed):
        def run(engine):
            pim = PimAssembler.small(subarrays=64)
            counter = PimKmerCounter(pim, 9, engine=engine)
            for read in random_reads(seed):
                counter.add_sequence(read)
            return counter, pim

        cs, ps = run("scalar")
        cb, pb = run("bulk")
        counts_s, len_s, rows_s = table_state(cs, ps)
        counts_b, len_b, rows_b = table_state(cb, pb)
        assert counts_s == counts_b
        assert len_s == len_b
        for a, b in zip(rows_s, rows_b):
            assert np.array_equal(a, b)
        ts, tb = ps.controller.ledger.totals(), pb.controller.ledger.totals()
        assert ts.commands == tb.commands
        assert ts.energy_nj == pytest.approx(tb.energy_nj)

    def test_repeat_heavy_stream_saturates_identically(self):
        reads = random_reads(3, n_reads=2, length=40) * 150

        def run(engine):
            pim = PimAssembler.small(subarrays=32)
            counter = PimKmerCounter(pim, 9, engine=engine)
            for read in reads:
                counter.add_sequence(read)
            return (
                dict(zip(*counter.counts())),
                pim.controller.ledger.totals().commands,
            )

        assert run("scalar") == run("bulk")

    def test_table_full_fires_at_the_same_arrival(self):
        reads = random_reads(2, n_reads=40, length=80)

        def run(engine):
            pim = PimAssembler.small(subarrays=4)
            counter = PimKmerCounter(pim, 9, engine=engine)
            err, consumed = None, 0
            try:
                for read in reads:
                    counter.add_sequence(read)
                    consumed += 1
            except TableFullError as exc:
                err = str(exc)
            state = table_state(counter, pim)
            return err, consumed, state, pim.controller.ledger.totals().commands

        err_s, n_s, state_s, cmd_s = run("scalar")
        err_b, n_b, state_b, cmd_b = run("bulk")
        assert err_s is not None
        assert (err_s, n_s) == (err_b, n_b)
        assert state_s[0] == state_b[0]
        for a, b in zip(state_s[2], state_b[2]):
            assert np.array_equal(a, b)
        assert cmd_s == cmd_b

    def test_live_fault_rates_replay_the_scalar_stream(self):
        """compute2/copy faults force the exact per-op RNG replay."""

        def run(engine):
            pim = PimAssembler.small(subarrays=32)
            pim.controller.faults = FaultModel(
                compute2_rate=0.01, copy_rate=0.005, seed=11
            )
            counter = PimKmerCounter(pim, 7, engine=engine)
            for read in random_reads(5, n_reads=6):
                counter.add_sequence(read)
            return (
                dict(zip(*counter.counts())),
                pim.controller.ledger.totals().commands,
                pim.controller.faults.injected_faults,
            )

        assert run("scalar") == run("bulk")


class TestDegreeEquivalence:
    @pytest.mark.parametrize("seed", [0, 4])
    def test_wallace_sum_matches(self, seed, rng):
        rows = [
            rng.integers(0, 2, 32).astype(np.uint8)
            for _ in range(int(np.random.default_rng(seed).integers(3, 40)))
        ]

        def run(engine):
            pim = PimAssembler.small(subarrays=4, rows=256, cols=32)
            if engine == "scalar":
                total = wallace_column_sum(pim, rows)
            else:  # the bulk degree path's charge for one reduction
                total = np.sum(rows, axis=0)
                _charge_wallace(pim, (0, 0, 0), [len(rows)])
            t = pim.controller.ledger.totals()
            return total, t.commands, t.time_ns, t.energy_nj

        sum_s, cmd_s, time_s, energy_s = run("scalar")
        sum_b, cmd_b, time_b, energy_b = run("bulk")
        assert np.array_equal(sum_s, sum_b)
        assert cmd_s == cmd_b
        # one sub-array: no gang overlap, so even the time is identical
        assert time_s == pytest.approx(time_b)
        assert energy_s == pytest.approx(energy_b)


class TestPipelineEquivalence:
    def pipeline_observables(self, result):
        return (
            [str(c.sequence) for c in result.contigs],
            result.kmer_table_size,
            result.hashmap.commands,
            result.debruijn.commands,
            result.traverse.commands,
        )

    @pytest.mark.parametrize("seed", [5, 19])
    def test_full_assembly_matches(self, seed):
        reference = synthetic_chromosome(600, seed=seed)
        sim = ReadSimulator(read_length=60, seed=seed + 1, error_rate=0.0)
        reads = sim.sample(reference, sim.reads_for_coverage(600, 6.0))
        scalar = assemble_with_pim(reads, k=15, engine="scalar")
        bulk = assemble_with_pim(reads, k=15, engine="bulk")
        assert self.pipeline_observables(scalar) == self.pipeline_observables(bulk)
        assert scalar.total_energy_nj == pytest.approx(bulk.total_energy_nj)
        # the point of the bulk engine: gang-charged time shrinks
        assert bulk.total_time_ns < scalar.total_time_ns

    def test_resilience_reports_match(self):
        reference = synthetic_chromosome(400, seed=8)
        sim = ReadSimulator(read_length=50, seed=9, error_rate=0.0)
        reads = sim.sample(reference, sim.reads_for_coverage(400, 5.0))
        scalar = assemble_with_pim(
            reads, k=13, engine="scalar", resilience="detect-retry-remap"
        )
        bulk = assemble_with_pim(
            reads, k=13, engine="bulk", resilience="detect-retry-remap"
        )
        assert self.pipeline_observables(scalar) == self.pipeline_observables(bulk)
        rs, rb = scalar.resilience, bulk.resilience
        assert rs is not None and rb is not None
        assert rs.totals.detected == rb.totals.detected
        assert rs.totals.corrected == rb.totals.corrected
        assert rs.totals.uncorrected == rb.totals.uncorrected
        assert rs.totals.retries == rb.totals.retries
        assert rs.totals.verified_ops == rb.totals.verified_ops
        assert rs.totals.scrubbed_rows == rb.totals.scrubbed_rows

    def test_degree_vectors_match_both_engines(self):
        from repro.assembly.debruijn import DeBruijnGraph

        reads = random_reads(6, n_reads=4, length=40)
        counts = {}
        pim0 = PimAssembler.small(subarrays=32)
        counter = PimKmerCounter(pim0, 7, engine="scalar")
        for read in reads:
            counter.add_sequence(read)
        graph = DeBruijnGraph.from_counts(*counter.counts(), k=7)
        for engine in ("scalar", "bulk"):
            pim = PimAssembler.small(subarrays=4, rows=512, cols=64)
            in_deg, out_deg = degree_vectors_pim(pim, graph, engine=engine)
            assert np.array_equal(in_deg, graph.in_degrees)
            assert np.array_equal(out_deg, graph.out_degrees)

    def test_rejects_unknown_engine(self):
        with pytest.raises(ValueError):
            PimKmerCounter(PimAssembler.small(subarrays=4), 9, engine="warp")
