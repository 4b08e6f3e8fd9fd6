"""Fault injection: Table I error rates inside the functional simulator."""

import numpy as np
import pytest

from repro.assembly import PimKmerCounter, SoftwareKmerCounter
from repro.core import PimAssembler
from repro.core.faults import FaultModel
from repro.genome import synthetic_chromosome
from repro.genome.kmer import pack_kmer


def faulty_pim(model, **kwargs):
    pim = PimAssembler.small(**kwargs)
    pim.controller.faults = model
    return pim


class TestFaultModel:
    def test_zero_rate_is_transparent(self, rng):
        model = FaultModel()
        bits = rng.integers(0, 2, 64).astype(np.uint8)
        assert model.corrupt(bits, "compute2") is bits
        assert not model.enabled

    def test_rate_one_flips_everything(self):
        model = FaultModel(compute2_rate=1.0)
        bits = np.zeros(32, dtype=np.uint8)
        assert model.corrupt(bits, "compute2").all()
        assert model.injected_faults == 32

    def test_statistical_rate(self):
        model = FaultModel(compute2_rate=0.1, seed=3)
        bits = np.zeros(100_000, dtype=np.uint8)
        flipped = model.corrupt(bits, "compute2").sum()
        assert 0.08 * bits.size < flipped < 0.12 * bits.size

    def test_sum_rate_defaults_to_compute2(self):
        model = FaultModel(compute2_rate=0.25)
        assert model.sum_rate == 0.25

    def test_mechanism_specific_rates(self):
        model = FaultModel(compute2_rate=0.0, tra_rate=1.0)
        bits = np.zeros(8, dtype=np.uint8)
        assert not model.corrupt(bits, "compute2").any()
        assert model.corrupt(bits, "tra").all()

    def test_unknown_mechanism(self):
        with pytest.raises(ValueError):
            FaultModel().corrupt(np.zeros(4, dtype=np.uint8), "quantum")

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            FaultModel(compute2_rate=1.5)

    def test_copy_rate_mechanism(self):
        model = FaultModel(copy_rate=1.0)
        assert model.enabled
        assert model.rate_for("copy") == 1.0
        bits = np.zeros(16, dtype=np.uint8)
        assert model.corrupt(bits, "copy").all()
        assert not FaultModel().corrupt(bits, "copy").any()

    def test_rate_for_unknown_mechanism(self):
        from repro.errors import FaultConfigError

        with pytest.raises(FaultConfigError):
            FaultModel().rate_for("quantum")

    def test_decide_is_seed_deterministic(self):
        """Two models with the same seed draw identical fault events."""
        a = FaultModel(compute2_rate=0.3, seed=42)
        b = FaultModel(compute2_rate=0.3, seed=42)
        assert (a.decide(1000, 0.3) == b.decide(1000, 0.3)).all()
        assert (a.decide((4, 8), 0.5) == b.decide((4, 8), 0.5)).all()
        c = FaultModel(compute2_rate=0.3, seed=43)
        assert (a.decide(1000, 0.3) != c.decide(1000, 0.3)).any()

    def test_decide_accepts_per_element_rates(self):
        model = FaultModel(seed=1)
        rates = np.array([0.0, 0.0, 1.0, 1.0])
        fired = model.decide(4, rates)
        assert not fired[:2].any() and fired[2:].all()

    def test_corrupt_is_seed_deterministic(self):
        bits = np.zeros(256, dtype=np.uint8)
        a = FaultModel(compute2_rate=0.1, seed=9).corrupt(bits, "compute2")
        b = FaultModel(compute2_rate=0.1, seed=9).corrupt(bits, "compute2")
        assert (a == b).all()

    def test_corrupt_scale_derates(self):
        """The retry path's derated re-execution flips fewer bits."""
        bits = np.zeros(100_000, dtype=np.uint8)
        full = FaultModel(compute2_rate=0.2, seed=3).corrupt(bits, "compute2")
        derated = FaultModel(compute2_rate=0.2, seed=3).corrupt(
            bits, "compute2", scale=0.1
        )
        assert 0 < derated.sum() < full.sum()

    def test_decide_split_draw_equals_concatenated_draw(self):
        """decide(a+b) == decide(a) ++ decide(b) at one seed — the
        stream-equivalence rule the bulk engine's batching relies on."""
        whole = FaultModel(seed=21).decide(100, 0.4)
        model = FaultModel(seed=21)
        split = np.concatenate([model.decide(60, 0.4), model.decide(40, 0.4)])
        assert (whole == split).all()

    def test_decide_2d_draw_equals_row_major_rows(self):
        """decide((n, w)) == n consecutive decide(w) draws, row-major."""
        block = FaultModel(seed=33).decide((5, 16), 0.25)
        model = FaultModel(seed=33)
        rows = np.vstack([model.decide(16, 0.25) for _ in range(5)])
        assert (block == rows).all()

    def test_corrupt_block_equals_per_row_corrupt(self, rng):
        """One (rows, cols) corruption draw is bit-identical to
        corrupting each row in order (same seed, same flips)."""
        block = rng.integers(0, 2, (8, 32)).astype(np.uint8)
        batched_model = FaultModel(compute2_rate=0.15, seed=5)
        batched = batched_model.corrupt_block(block, "compute2")
        rowwise_model = FaultModel(compute2_rate=0.15, seed=5)
        rowwise = np.vstack(
            [rowwise_model.corrupt(row, "compute2") for row in block]
        )
        assert (batched == rowwise).all()
        assert batched_model.injected_faults == rowwise_model.injected_faults

    def test_corrupt_block_zero_rate_is_identity(self, rng):
        """Zero-rate mechanisms must not draw: the stream stays aligned."""
        block = rng.integers(0, 2, (4, 16)).astype(np.uint8)
        model = FaultModel(compute2_rate=0.5, seed=2)
        assert model.corrupt_block(block, "copy") is block
        # the skipped draw left the stream untouched
        ref = FaultModel(compute2_rate=0.5, seed=2)
        assert (model.decide(64, 0.5) == ref.decide(64, 0.5)).all()

    def test_from_variation_matches_table1(self):
        """Rates derived from the Monte Carlo track Table I: clean at
        +/-5%, TRA markedly worse at +/-10%."""
        clean = FaultModel.from_variation(5.0)
        assert clean.compute2_rate < 0.001
        assert clean.tra_rate < 0.001
        stressed = FaultModel.from_variation(10.0)
        assert stressed.tra_rate > 5 * max(stressed.compute2_rate, 1e-6)


class TestFunctionalImpact:
    def test_zero_faults_identical_tables(self):
        ref = synthetic_chromosome(300, seed=601)
        pim = faulty_pim(FaultModel(), subarrays=4, rows=256, cols=64)
        counter = PimKmerCounter(pim, 9)
        counter.add_sequence(ref)
        software = SoftwareKmerCounter(9)
        software.add_sequence(ref)
        assert dict(zip(*counter.counts())) == software.counts()

    def test_heavy_faults_corrupt_the_table(self):
        # k=6 gives many duplicate queries, whose matches the faulty
        # scans can miss (a missed match re-inserts the k-mer).
        ref = synthetic_chromosome(300, seed=602)
        model = FaultModel(compute2_rate=0.02, seed=7)
        pim = faulty_pim(model, subarrays=4, rows=256, cols=64)
        counter = PimKmerCounter(pim, 6)
        counter.add_sequence(ref)
        software = SoftwareKmerCounter(6)
        software.add_sequence(ref)
        assert dict(zip(*counter.counts())) != software.counts()

    def test_twice_stored_kmers_read_back_once_and_round_trip(self):
        """A missed match stores a k-mer in a second slot: the readback
        lists it once with its last copy's count, and the journal state
        re-attaches every copy."""
        ref = synthetic_chromosome(300, seed=602)
        pim = faulty_pim(
            FaultModel(compute2_rate=0.02, seed=7), subarrays=4, rows=256, cols=64
        )
        counter = PimKmerCounter(pim, 6)
        counter.add_sequence(ref)
        kmers, counts = counter.counts()
        assert len(counter) > kmers.size  # some k-mer is stored twice
        assert (kmers[1:] > kmers[:-1]).all()
        last_copy = {}
        for index in range(counter.partitions):
            for slot in range(counter.occupancy[index]):
                packed = pack_kmer(counter.stored_kmer(index, slot))
                last_copy[packed] = counter._read_counter(index, slot)
        assert dict(zip(kmers.tolist(), counts.tolist())) == last_copy
        restored = PimKmerCounter.from_state(pim, counter.state_dict())
        assert restored.occupancy == counter.occupancy
        for mine, theirs in zip(restored._slot_order(), counter._slot_order()):
            np.testing.assert_array_equal(mine, theirs)
        np.testing.assert_array_equal(restored.kmers, counter.kmers)

    def test_table1_two_row_rate_is_harmless_at_10pct(self):
        """The paper's reliability argument, end to end: at +/-10%
        variation the two-row mechanism's error rate leaves the k-mer
        table intact, while TRA's rate would not be."""
        ref = synthetic_chromosome(300, seed=603)
        model = FaultModel.from_variation(10.0, seed=11)
        # apply ONLY the two-row (compute2) rate, as the hashmap scan
        # is a pure two-row-activation workload
        scan_model = FaultModel(compute2_rate=model.compute2_rate, seed=11)
        pim = faulty_pim(scan_model, subarrays=4, rows=256, cols=64)
        counter = PimKmerCounter(pim, 9)
        counter.add_sequence(ref)
        software = SoftwareKmerCounter(9)
        software.add_sequence(ref)
        assert dict(zip(*counter.counts())) == software.counts()

    def test_tra_faults_break_degree_sums(self, rng):
        from repro.mapping import wallace_column_sum

        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(9)]
        clean_pim = PimAssembler.small(subarrays=1, rows=256, cols=32)
        clean = wallace_column_sum(clean_pim, rows)
        faulty = faulty_pim(
            FaultModel(tra_rate=0.2, seed=13), subarrays=1, rows=256, cols=32
        )
        corrupted = wallace_column_sum(faulty, rows)
        assert (clean == np.sum(rows, axis=0)).all()
        assert (corrupted != clean).any()
