"""The PimAssembler facade: allocation, PIM ops, bulk vectors, stats."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PimAssembler


class TestAllocation:
    def test_bump_allocator_advances(self, small_pim):
        a = small_pim.allocate_row()
        b = small_pim.allocate_row()
        assert b.row == a.row + 1
        assert small_pim.rows_in_use((0, 0, 0)) == 2

    def test_allocation_exhaustion(self):
        pim = PimAssembler.small(subarrays=1, rows=16, cols=8)
        for _ in range(8):  # 16 rows - 8 compute rows
            pim.allocate_row()
        with pytest.raises(MemoryError):
            pim.allocate_row()

    def test_independent_subarrays(self, small_pim):
        small_pim.allocate_row((0, 0, 0))
        b = small_pim.allocate_row((0, 0, 1))
        assert b.row == 0


class TestStoreAndRead:
    def test_roundtrip_with_padding(self, small_pim, rng):
        data = rng.integers(0, 2, 20).astype(np.uint8)
        a = small_pim.store_row(data)
        assert (small_pim.read_row(a, bits=20) == data).all()
        assert (small_pim.read_row(a)[20:] == 0).all()

    def test_rejects_oversized(self, small_pim):
        with pytest.raises(ValueError):
            small_pim.store_row(np.zeros(33, dtype=np.uint8))

    def test_mem_insert_overwrites(self, small_pim, rng):
        a = small_pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        new = rng.integers(0, 2, 32).astype(np.uint8)
        small_pim.mem_insert(a, new)
        assert (small_pim.read_row(a) == new).all()


class TestPimXnorCompare:
    def test_xnor(self, small_pim, rng):
        a_bits = rng.integers(0, 2, 32).astype(np.uint8)
        b_bits = rng.integers(0, 2, 32).astype(np.uint8)
        a = small_pim.store_row(a_bits)
        b = small_pim.store_row(b_bits)
        out = small_pim.pim_xnor(a, b)
        assert (out == (1 - (a_bits ^ b_bits))).all()

    def test_compare_equal(self, small_pim, rng):
        bits = rng.integers(0, 2, 32).astype(np.uint8)
        a = small_pim.store_row(bits)
        b = small_pim.store_row(bits)
        assert small_pim.pim_compare(a, b)

    def test_compare_valid_bits(self, small_pim):
        a = small_pim.store_row(np.array([1] * 8 + [0] * 24, dtype=np.uint8))
        b = small_pim.store_row(np.array([1] * 8 + [1] * 24, dtype=np.uint8))
        assert small_pim.pim_compare(a, b, valid_bits=8)
        assert not small_pim.pim_compare(a, b)

    def test_compare_rejects_bad_valid_bits(self, small_pim, rng):
        a = small_pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        with pytest.raises(ValueError):
            small_pim.pim_compare(a, a, valid_bits=0)


class TestWordColumns:
    def test_store_read_roundtrip(self, small_pim, rng):
        values = rng.integers(0, 2**7, 10)
        words = small_pim.store_word_columns(values, bits=7)
        assert (small_pim.read_word_columns(words) == values).all()

    def test_rejects_value_overflow(self, small_pim):
        with pytest.raises(ValueError):
            small_pim.store_word_columns([256], bits=8)

    def test_rejects_too_many_words(self, small_pim):
        with pytest.raises(ValueError):
            small_pim.store_word_columns(list(range(33)), bits=8)

    def test_pim_add_carry_out(self, small_pim):
        wa = small_pim.store_word_columns([255], bits=8)
        wb = small_pim.store_word_columns([255], bits=8)
        ws = small_pim.pim_add(wa, wb)
        assert ws.bits == 9
        assert small_pim.read_word_columns(ws)[0] == 510


class TestBulkXnor:
    @given(n=st.integers(min_value=1, max_value=700))
    @settings(max_examples=15, deadline=None)
    def test_arbitrary_lengths(self, n):
        pim = PimAssembler.small(subarrays=4, rows=128, cols=32)
        rng = np.random.default_rng(n)
        a = rng.integers(0, 2, n).astype(np.uint8)
        b = rng.integers(0, 2, n).astype(np.uint8)
        assert (pim.bulk_xnor(a, b) == (1 - (a ^ b))).all()

    def test_rejects_mismatched_lengths(self, small_pim):
        with pytest.raises(ValueError):
            small_pim.bulk_xnor(np.zeros(4, dtype=np.uint8),
                                np.zeros(5, dtype=np.uint8))

    def test_rejects_empty(self, small_pim):
        with pytest.raises(ValueError):
            small_pim.bulk_xnor(np.zeros(0, dtype=np.uint8),
                                np.zeros(0, dtype=np.uint8))


class TestStats:
    def test_phase_context(self, small_pim, rng):
        with small_pim.phase("hashmap"):
            small_pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        assert small_pim.stats.totals("hashmap").total_commands == 1

    def test_reset(self, small_pim, rng):
        small_pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        small_pim.reset_stats()
        assert small_pim.stats.totals().total_commands == 0

    def test_every_op_charges_time_and_energy(self, small_pim, rng):
        a = small_pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        b = small_pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        small_pim.pim_xnor(a, b)
        totals = small_pim.stats.totals()
        assert totals.time_ns > 0
        assert totals.energy_nj > 0


class TestLazyInstantiation:
    def test_default_device_is_cheap(self):
        """Constructing the full 1-GiB device must not allocate it."""
        pim = PimAssembler()
        assert pim.geometry.num_subarrays == 32768
        assert pim.device.slot_keys() == []

    def test_touching_one_subarray_instantiates_one(self):
        pim = PimAssembler()
        pim.allocate_row((3, 17, 5))
        assert pim.device.slot_keys() == []  # allocator only
        pim.store_row(np.zeros(256, dtype=np.uint8), (3, 17, 5))
        assert pim.device.slot_keys() == [(3, 17, 5)]
        assert pim.device.store.n_slots == 1
