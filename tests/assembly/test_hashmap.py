"""The Hashmap procedure: PIM table vs the software golden model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.assembly.hashmap import PimKmerCounter, SoftwareKmerCounter
from repro.core import PimAssembler
from repro.genome.kmer import pack_kmer
from repro.genome.reference import synthetic_chromosome
from repro.genome.reads import ReadSimulator
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", min_size=12, max_size=120)


class TestSoftwareCounter:
    def test_counts_sequence(self):
        counter = SoftwareKmerCounter(3)
        counter.add_sequence(DnaSequence("ACGACG"))
        counts = counter.counts()
        assert counts[pack_kmer(DnaSequence("ACG"))] == 2
        assert len(counter) == 3  # ACG, CGA, GAC

    def test_counts_reads(self):
        ref = synthetic_chromosome(500, seed=1)
        reads = ReadSimulator(read_length=50, seed=2).sample(ref, 10)
        counter = SoftwareKmerCounter(9)
        counter.add_reads(reads)
        assert sum(counter.counts().values()) == 10 * (50 - 9 + 1)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            SoftwareKmerCounter(0)


class TestPimCounterEquivalence:
    def test_matches_software_on_genome(self, medium_pim):
        ref = synthetic_chromosome(600, seed=4)
        pim_counter = PimKmerCounter(medium_pim, 11)
        pim_counter.add_sequence(ref)
        software = SoftwareKmerCounter(11)
        software.add_sequence(ref)
        assert dict(zip(*pim_counter.counts())) == software.counts()

    @given(text=dna)
    @settings(max_examples=20, deadline=None)
    def test_matches_software_property(self, text):
        pim = PimAssembler.small(subarrays=4, rows=128, cols=32)
        seq = DnaSequence(text)
        k = 7
        pim_counter = PimKmerCounter(pim, k)
        pim_counter.add_sequence(seq)
        software = SoftwareKmerCounter(k)
        software.add_sequence(seq)
        assert dict(zip(*pim_counter.counts())) == software.counts()

    def test_kmers_stored_in_memory_verbatim(self, medium_pim):
        """The stored rows themselves decode back to the k-mers."""
        counter = PimKmerCounter(medium_pim, 9)
        seq = synthetic_chromosome(100, seed=5)
        counter.add_sequence(seq)
        seen = set()
        for partition in range(counter.partitions):
            occupied = counter.occupancy[partition]
            for slot in range(occupied):
                seen.add(str(counter.stored_kmer(partition, slot)))
        expected = {str(k) for k in seq.kmers(9)}
        assert seen == expected


class TestPimCounterMechanics:
    def test_rejects_wrong_kmer_length(self, small_pim):
        counter = PimKmerCounter(small_pim, 5)
        with pytest.raises(ValueError):
            counter.add_kmer(DnaSequence("ACG"))

    def test_rejects_kmer_wider_than_row(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        with pytest.raises(ValueError):
            PimKmerCounter(pim, 20)  # 40 bit lines > 16 columns

    def test_table_overflow_raises(self):
        pim = PimAssembler.small(subarrays=1, rows=16, cols=16)
        counter = PimKmerCounter(pim, 4)
        capacity = counter.layout.kmer_rows
        ref = synthetic_chromosome(2000, seed=6)
        with pytest.raises(MemoryError):
            counter.add_sequence(ref)
        assert len(counter) == capacity

    def test_counter_saturates_at_field_max(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        counter = PimKmerCounter(pim, 4)
        kmer = DnaSequence("ACGT")
        for _ in range(counter.layout.counter_max + 10):
            counter.add_kmer(kmer)
        kmers, counts = counter.counts()
        assert kmers.tolist() == [pack_kmer(kmer)]
        assert counts.tolist() == [counter.layout.counter_max]

    def test_partitions_spread_load(self, medium_pim):
        counter = PimKmerCounter(medium_pim, 9)
        counter.add_sequence(synthetic_chromosome(800, seed=7))
        occupied = counter.occupancy
        assert sum(1 for o in occupied if o > 0) >= counter.partitions // 2

    def test_commands_are_charged(self, medium_pim):
        counter = PimKmerCounter(medium_pim, 9)
        counter.add_sequence(synthetic_chromosome(120, seed=8))
        totals = medium_pim.stats.totals()
        assert totals.commands["MEM_WR"] > 0  # temp inserts
        assert totals.commands["AAP2"] > 0  # comparisons
        assert totals.commands["DPU"] > 0  # match decisions + increments
