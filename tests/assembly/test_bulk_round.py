"""One bulk hashmap round: fixed work however many partitions it touches.

The bulk engine writes a round's new k-mer rows and every touched
sub-array's compute-row end state with one ``(slot, row)`` scatter.
These tests pin that shape with call counters (not wall-clock) and pin
the SECDED sidecar work a round leaves behind.
"""

import numpy as np
import pytest

import repro.assembly.hashmap as hashmap
from repro.assembly.hashmap import PimKmerCounter
from repro.core import PimAssembler
from repro.core.device import Device
from repro.core.integrity import IntegrityConfig
from repro.core.storage import BitPlaneStore
from repro.genome.kmer import iter_kmers, pack_kmer
from repro.genome.sequence import DnaSequence
from repro.mapping.hashing import kmer_partition


def random_reads(seed, n_reads, length):
    rng = np.random.default_rng(seed)
    return [
        DnaSequence("".join(rng.choice(list("ACGT"), size=length)))
        for _ in range(n_reads)
    ]


READS = random_reads(5, n_reads=4, length=40)
#: six rounds mixing new keys and hits on every partition
ROUNDS = [[READS[i % 4], READS[(i + 1) % 4]] for i in range(6)]


def protected_counter(engine):
    pim = PimAssembler.small(subarrays=16)
    pim.attach_integrity(
        IntegrityConfig(
            ecc="secded",
            retention_interval_s=3e-5,
            seed=3,
            upset_probability=0.0,
        )
    )
    return pim, PimKmerCounter(pim, 9, engine=engine)


def store_state(pim, counter):
    """Words and code bytes of every partition, in partition order."""
    store = pim.device.store
    slots = [pim.device.subarray_at(key).slot for key in counter._keys]
    return store.tensor[slots].copy(), store.ecc_plane[slots].copy()


class TestSecdedSidecar:
    def test_encoded_rows_per_round_and_state_match_scalar(self):
        bulk_pim, bulk = protected_counter("bulk")
        scalar_pim, scalar = protected_counter("scalar")
        drained = []
        for batch in ROUNDS:
            bulk.add_sequences(batch)
            scalar.add_sequences(batch)
            drained.append(bulk_pim.device.store.drain_encoded_rows())
            scalar_pim.device.store.drain_encoded_rows()
            words_b, code_b = store_state(bulk_pim, bulk)
            words_s, code_s = store_state(scalar_pim, scalar)
            assert np.array_equal(words_b, words_s)
            assert np.array_equal(code_b, code_s)
        # rows re-encoded per round: new k-mer rows, touched counter
        # rows and the temp/x1/x2/x3 end state (the one-scatter round
        # keeps the per-row tally of the per-partition writes)
        assert drained == [148, 124, 124, 90, 86, 92]

    def test_ledger_counts_per_round(self):
        pim, counter = protected_counter("bulk")
        seen = []
        for batch in ROUNDS:
            counter.add_sequences(batch)
            pim.integrity_sync()
            seen.append(
                (
                    pim.stats.command_count("ECC_ENC"),
                    pim.stats.command_count("ECC_CHK"),
                )
            )
        # each read of a round is its own gang schedule, so the
        # simulated clock crosses the first retention window in round 2
        assert seen == [
            (148, 0),
            (272, 1024),
            (396, 2048),
            (486, 3072),
            (572, 3072),
            (664, 4096),
        ]


def counting(monkeypatch, owner, name):
    """Wrap ``owner.name`` with a call counter; returns the tally."""
    calls = []
    raw = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return raw(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkPerRound:
    def test_one_row_word_conversion_per_round(self, monkeypatch):
        pim = PimAssembler.small(subarrays=16)
        counter = PimKmerCounter(pim, 9, engine="bulk")
        words = counting(monkeypatch, hashmap, "packed_to_row_words")
        bits = counting(monkeypatch, hashmap, "packed_to_row_bits")
        for batch in ROUNDS:
            before = len(words)
            counter.add_sequences(batch)
            assert len(words) - before == 1
        assert not bits
        assert sum(1 for n in counter.occupancy if n) >= 8

    def test_subarray_lookup_only_on_first_touch(self, monkeypatch):
        pim = PimAssembler.small(subarrays=16)
        counter = PimKmerCounter(pim, 9, engine="bulk")
        claims = counting(monkeypatch, Device, "_claim")
        growths = counting(monkeypatch, BitPlaneStore, "new_slots")

        def claimed():
            return [key for _, keys in claims for key in keys]

        counter.add_sequences(ROUNDS[0])
        # first use: read by read, each read's partitions increasing
        first_use = []
        for read in ROUNDS[0]:
            for part in sorted(
                {
                    kmer_partition(pack_kmer(kmer), counter.partitions)
                    for kmer in iter_kmers(read, 9)
                }
            ):
                if counter._keys[part] not in first_use:
                    first_use.append(counter._keys[part])
        touched = sum(1 for n in counter.occupancy if n)
        assert touched >= 8
        # each partition claimed once, in first-use order, by one claim
        # and one store growth
        assert claimed() == first_use
        assert len(first_use) == touched
        assert len(claims) == len(growths) == 1
        assert pim.device.slot_keys() == first_use
        # the same k-mers again touch only known partitions
        counter.add_sequences(ROUNDS[0])
        assert len(claims) == len(growths) == 1


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
def test_state_round_trip_keeps_bulk_index(engine):
    """A counter re-attached from its state keeps counting correctly."""
    pim = PimAssembler.small(subarrays=16)
    counter = PimKmerCounter(pim, 9, engine=engine)
    for batch in ROUNDS[:3]:
        counter.add_sequences(batch)
    again = PimKmerCounter.from_state(pim, counter.state_dict(), engine="bulk")
    for batch in ROUNDS[3:]:
        again.add_sequences(batch)

    reference = PimKmerCounter(PimAssembler.small(subarrays=16), 9)
    for batch in ROUNDS:
        reference.add_sequences(batch)
    assert dict(zip(*again.counts())) == dict(zip(*reference.counts()))
    assert again.occupancy == reference.occupancy
