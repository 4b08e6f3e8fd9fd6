"""The host key index of the bulk hashmap, and what a bulk batch costs.

The counter resolves k-mers to slots through a hash table
(:class:`~repro.mapping.hashing.KeySlotTable`).  A k-mer that a faulted
scan missed is stored a second time; the table keeps its first copy,
which is the one a scan matches.  These tests hold the index to the
device rows themselves and to the sorted-index semantics it replaced,
and pin that a batch allocates in proportion to itself, not the table.
"""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.assembly.hashmap import PimKmerCounter
from repro.core import PimAssembler
from repro.core.integrity import IntegrityConfig
from repro.genome.kmer import kmer_to_row_bits, pack_kmer, unpack_kmer
from repro.genome.sequence import DnaSequence
from repro.mapping.hashing import kmer_partition
from repro.runtime.checkpoint import decode_words

K = 6


def random_reads(seed, n_reads, length):
    rng = np.random.default_rng(seed)
    return [
        DnaSequence("".join(rng.choice(list("ACGT"), size=length)))
        for _ in range(n_reads)
    ]


def store_twice(counter, key):
    """Store an already-stored k-mer again, as the scalar path does
    after a faulted scan missed its first copy."""
    index = kmer_partition(key, counter.partitions)
    temp = counter._addr(index, counter.layout.temp_row(0))
    counter.pim.controller.write_row(
        temp, kmer_to_row_bits(unpack_kmer(key, counter.k), counter.pim.row_bits)
    )
    counter._insert_new(index, temp, key)


def device_rows(counter):
    """``(key, partition, slot)`` of every stored row, read off memory
    in partition/slot order."""
    return [
        (pack_kmer(counter.stored_kmer(p, s)), p, s)
        for p in range(counter.partitions)
        for s in range(counter.occupancy[p])
    ]


def sorted_index(rows):
    """The sorted key index the hash table replaced: keys increasing,
    the copies of a key in slot order."""
    keys = np.array([key for key, _, _ in rows], dtype=np.uint64)
    slots = np.array([slot for _, _, slot in rows], dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    return keys[order], slots[order]


OPS = st.lists(
    st.one_of(
        # few read seeds: later batches hit k-mers stored twice
        st.tuples(st.just("bulk"), st.integers(0, 5), st.integers(1, 4)),
        st.tuples(st.just("twice"), st.integers(0, 10**6)),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=40, deadline=None)
@given(OPS)
def test_index_matches_device_rows_and_sorted_reference(ops):
    counters = {
        engine: PimKmerCounter(
            PimAssembler.small(subarrays=16), K, engine=engine
        )
        for engine in ("bulk", "scalar")
    }
    for op in ops:
        for counter in counters.values():
            if op[0] == "bulk":
                counter.add_sequences(random_reads(op[1], op[2], 20))
            elif len(counter):
                kmers = counter.kmers
                store_twice(counter, int(kmers[op[1] % kmers.size]))

    bulk = counters["bulk"]
    rows = device_rows(bulk)
    keys, slots = sorted_index(rows)
    distinct, first = np.unique(keys, return_index=True)
    # lookups resolve a twice-stored k-mer to its first (lowest) slot
    np.testing.assert_array_equal(bulk._index.lookup(distinct), slots[first])
    # readback: strictly increasing, each k-mer's last copy counted
    last = keys.size - 1 - np.unique(keys[::-1], return_index=True)[1]
    np.testing.assert_array_equal(bulk.kmers, keys[last])
    assert (bulk.kmers[1:] > bulk.kmers[:-1]).all()
    got_keys, got_counts = bulk.counts()
    np.testing.assert_array_equal(got_keys, keys[last])
    by_slot = {(p, s): key for key, p, s in rows}
    last_copy = {}
    for (p, s), key in sorted(by_slot.items()):
        last_copy[key] = (p, s)
    expected = [bulk._read_counter(*last_copy[int(key)]) for key in keys[last]]
    np.testing.assert_array_equal(got_counts, expected)
    # the journal state lists every row in partition/slot order
    state = bulk.state_dict()
    np.testing.assert_array_equal(
        decode_words(state["kmers"], "<u8", "kmers"),
        [key for key, _, _ in rows],
    )
    restored = PimKmerCounter.from_state(bulk.pim, state, engine="bulk")
    for mine, theirs in zip(restored._slot_order(), bulk._slot_order()):
        np.testing.assert_array_equal(mine, theirs)
    np.testing.assert_array_equal(restored._index.lookup(distinct), slots[first])
    assert restored.state_dict() == state

    # the scalar golden model scans to the first copy too
    scalar = counters["scalar"]
    assert scalar.occupancy == bulk.occupancy
    assert scalar.state_dict() == state
    for mine, theirs in zip(scalar.counts(), bulk.counts()):
        np.testing.assert_array_equal(mine, theirs)


def test_a_small_batch_allocates_for_itself_not_the_table():
    """A few new keys for already-claimed partitions: the batch's peak
    allocation stays under a tenth of one copy of a sorted
    (uint64 key, int64 slot) index of the table plus one int64 array
    per partition — what a whole-table merge allocates."""
    k = 16
    pim = PimAssembler.small(subarrays=20_000, rows=64, cols=32)
    counter = PimKmerCounter(pim, k, engine="bulk")
    counter.add_sequences(random_reads(1, 1_100, 100 + k - 1))
    assert counter.partitions >= 20_000
    assert len(counter) >= 100_000
    occupied = np.asarray(counter.occupancy)
    counter.add_sequences(random_reads(2, 1, k + 4))  # warm the caches
    for seed in range(3, 100):
        (few,) = random_reads(seed, 1, k + 4)
        parts = [
            kmer_partition(pack_kmer(few[i : i + k]), counter.partitions)
            for i in range(5)
        ]
        if occupied[parts].all():
            break
    assert occupied[parts].all()
    before = len(counter)
    tracemalloc.start()
    try:
        counter.add_sequences([few])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(counter) > before
    whole_table = 16 * len(counter) + 8 * counter.partitions
    assert peak <= whole_table // 10, (peak, whole_table)


def test_protected_batch_plans_once_per_stored_run(monkeypatch):
    """Under rot checkpoints the stored head of a cut batch comes from
    the plan that found the cut: one plan per stored run, so no more
    plans than closed retention windows plus the final run."""
    pim = PimAssembler.small(subarrays=16, rows=64, mats=2)
    pim.attach_integrity(
        IntegrityConfig(
            ecc="secded",
            retention_interval_s=3e-5,
            seed=3,
            upset_probability=2e-3,
        )
    )
    counter = PimKmerCounter(pim, 9, engine="bulk", rot_checkpoints=True)
    plans = []
    plan = PimKmerCounter._plan_batch

    def counted(self, *args):
        plans.append(args[0].size)
        return plan(self, *args)

    monkeypatch.setattr(PimKmerCounter, "_plan_batch", counted)
    counter.add_sequences(random_reads(11, 40, 30))
    windows = pim.integrity.counts().windows
    assert windows >= 3
    assert len(plans) <= windows + 1, (len(plans), windows)
