"""k-mer packing, rolling extraction, counting, row layout."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.genome.kmer import (
    MAX_PACKED_K,
    PAPER_K_VALUES,
    count_kmers,
    iter_packed_kmers,
    kmer_to_row_bits,
    pack_kmer,
    packed_kmers_array,
    packed_kmers_batch,
    packed_to_row_words,
    unpack_kmer,
)
from repro.core.storage import pack_rows
from repro.genome.sequence import DnaSequence

dna = st.text(alphabet="ACGT", min_size=1, max_size=80)
kmer_text = st.text(alphabet="ACGT", min_size=1, max_size=32)


class TestPacking:
    @given(kmer_text)
    def test_pack_unpack_roundtrip(self, text):
        kmer = DnaSequence(text)
        assert unpack_kmer(pack_kmer(kmer), len(kmer)) == kmer

    def test_known_values(self):
        # T=00 G=01 A=10 C=11; "AC" -> 10 11 -> 0b1011 = 11
        assert pack_kmer(DnaSequence("AC")) == 0b1011
        assert pack_kmer(DnaSequence("T")) == 0
        assert pack_kmer(DnaSequence("C")) == 3

    def test_pack_rejects_empty(self):
        with pytest.raises(ValueError):
            pack_kmer(DnaSequence(""))

    def test_pack_rejects_oversized(self):
        with pytest.raises(ValueError):
            pack_kmer(DnaSequence("A" * (MAX_PACKED_K + 1)))

    def test_unpack_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            unpack_kmer(4, 1)  # 1-mer space is 0..3

    def test_injective_over_small_space(self):
        values = {pack_kmer(k) for k in DnaSequence("ACGTACGTGGCCTTAA").kmers(4)}
        kmers = {str(k) for k in DnaSequence("ACGTACGTGGCCTTAA").kmers(4)}
        assert len(values) == len(kmers)


class TestExtraction:
    @given(dna, st.integers(min_value=1, max_value=16))
    def test_rolling_matches_vectorised(self, text, k):
        seq = DnaSequence(text)
        rolling = list(iter_packed_kmers(seq, k))
        vectorised = packed_kmers_array(seq, k).tolist()
        assert rolling == vectorised

    @given(dna, st.integers(min_value=1, max_value=16))
    def test_matches_naive_packing(self, text, k):
        seq = DnaSequence(text)
        naive = [pack_kmer(kmer) for kmer in seq.kmers(k)]
        assert list(iter_packed_kmers(seq, k)) == naive

    @given(st.lists(st.text(alphabet="ACGT", max_size=30), max_size=6),
           st.integers(min_value=1, max_value=16))
    def test_batch_matches_per_sequence_rolling(self, texts, k):
        """No window crosses a sequence boundary; owners label each k-mer."""
        seqs = [DnaSequence(text) for text in texts]
        packed, owner = packed_kmers_batch(seqs, k)
        expected = [
            (value, index)
            for index, seq in enumerate(seqs)
            for value in iter_packed_kmers(seq, k)
        ]
        assert list(zip(packed.tolist(), owner.tolist())) == expected

    def test_short_sequence_yields_nothing(self):
        assert list(iter_packed_kmers(DnaSequence("AC"), 5)) == []
        assert packed_kmers_array(DnaSequence("AC"), 5).size == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            list(iter_packed_kmers(DnaSequence("ACGT"), 0))
        with pytest.raises(ValueError):
            packed_kmers_array(DnaSequence("ACGT"), 33)


class TestCounting:
    def test_total_equals_positions(self):
        seq = DnaSequence("ACGTACGTAA")
        counts = count_kmers(seq, 3)
        assert sum(counts.values()) == len(seq) - 3 + 1

    def test_repeat_counted(self):
        counts = count_kmers(DnaSequence("ACGACGACG"), 3)
        assert counts[pack_kmer(DnaSequence("ACG"))] == 3

    def test_multiple_sequences(self):
        seqs = [DnaSequence("ACGT"), DnaSequence("ACGA")]
        counts = count_kmers(seqs, 3)
        assert counts[pack_kmer(DnaSequence("ACG"))] == 2

    def test_paper_k_values(self):
        assert PAPER_K_VALUES == (16, 22, 26, 32)
        assert all(k <= MAX_PACKED_K for k in PAPER_K_VALUES)


class TestRowLayout:
    def test_pads_to_row(self):
        bits = kmer_to_row_bits(DnaSequence("ACG"), row_bits=16)
        assert bits.size == 16
        assert (bits[6:] == 0).all()

    def test_preserves_prefix(self):
        kmer = DnaSequence("ACGT")
        bits = kmer_to_row_bits(kmer, row_bits=32)
        assert (bits[:8] == kmer.to_bits()).all()

    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            kmer_to_row_bits(DnaSequence("A" * 20), row_bits=16)

    @given(kmer_text, st.sampled_from([64, 65, 130, 256]))
    def test_row_words_pack_the_row_bits(self, text, row_bits):
        kmer = DnaSequence(text)
        words = packed_to_row_words(
            np.array([pack_kmer(kmer)], dtype=np.uint64), len(kmer), row_bits
        )
        np.testing.assert_array_equal(
            words, pack_rows(kmer_to_row_bits(kmer, row_bits))[None, :]
        )

    def test_row_words_of_no_kmers(self):
        words = packed_to_row_words(np.zeros(0, dtype=np.uint64), 22, 64)
        assert words.shape == (0, 1)
