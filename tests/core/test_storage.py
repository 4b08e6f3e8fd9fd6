"""The columnar packed bit-plane store: pack boundary and field access.

Property tests for the invariants everything else leans on: LSB-first
round-tripping at ragged widths, the tail-bits-are-zero rule, chunked
many-query kernels matching their one-shot results, bit-field
gather/scatter, and snapshot restoration across the old-unpacked /
new-packed journal format boundary.
"""

import numpy as np
import pytest

from repro.core.storage import (
    BitPlaneStore,
    col_mask,
    compare_many_packed,
    hamming_many_packed,
    pack_rows,
    popcount_words,
    unpack_rows,
    width_mask,
    words_for,
)


RAGGED_WIDTHS = [1, 7, 63, 64, 65, 100, 128, 200, 256, 300]


class TestPackRoundTrip:
    @pytest.mark.parametrize("cols", RAGGED_WIDTHS)
    def test_unpack_pack_identity(self, cols):
        rng = np.random.default_rng(cols)
        bits = rng.integers(0, 2, size=(17, cols), dtype=np.uint8)
        packed = pack_rows(bits)
        assert packed.shape == (17, words_for(cols))
        assert packed.dtype == np.uint64
        np.testing.assert_array_equal(unpack_rows(packed, cols), bits)

    @pytest.mark.parametrize("cols", RAGGED_WIDTHS)
    def test_pack_unpack_identity_on_words(self, cols):
        """pack(unpack(x)) == x for any tail-clean word image."""
        rng = np.random.default_rng(1000 + cols)
        words = rng.integers(
            0, 1 << 63, size=(9, words_for(cols)), dtype=np.uint64
        )
        words &= col_mask(cols)  # the invariant every stored word obeys
        np.testing.assert_array_equal(
            pack_rows(unpack_rows(words, cols)), words
        )

    def test_lsb_first_layout(self):
        bits = np.zeros(128, dtype=np.uint8)
        bits[0] = 1  # column 0 -> word 0, bit 0
        bits[65] = 1  # column 65 -> word 1, bit 1
        packed = pack_rows(bits)
        assert packed[0] == np.uint64(1)
        assert packed[1] == np.uint64(2)

    @pytest.mark.parametrize("cols", [1, 63, 65, 100, 300])
    def test_tail_bits_are_zero(self, cols):
        bits = np.ones((4, cols), dtype=np.uint8)
        packed = pack_rows(bits)
        np.testing.assert_array_equal(packed & ~col_mask(cols), 0)

    def test_wrong_word_count_rejected(self):
        with pytest.raises(ValueError, match="expected"):
            unpack_rows(np.zeros(3, dtype=np.uint64), 100)


class TestMasks:
    def test_col_mask_tail(self):
        mask = col_mask(100)
        assert mask.shape == (2,)
        assert mask[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
        assert mask[1] == np.uint64((1 << 36) - 1)

    def test_width_mask_subset_of_col_mask(self):
        for width in (1, 63, 64, 65, 99):
            wm = width_mask(100, width)
            np.testing.assert_array_equal(wm & ~col_mask(100), 0)
            assert popcount_words(wm, axis=None).sum() == width

    def test_width_mask_full_when_none_or_wide(self):
        np.testing.assert_array_equal(width_mask(100, None), col_mask(100))
        np.testing.assert_array_equal(width_mask(100, 100), col_mask(100))
        np.testing.assert_array_equal(width_mask(100, 500), col_mask(100))


class TestPackedKernels:
    def _case(self, seed, q=37, n=23, cols=200):
        rng = np.random.default_rng(seed)
        queries = rng.integers(0, 2, size=(q, cols), dtype=np.uint8)
        block = rng.integers(0, 2, size=(n, cols), dtype=np.uint8)
        # plant exact matches so both branches are exercised
        block[3] = queries[5]
        block[7] = queries[5]
        return queries, block, cols

    @pytest.mark.parametrize("width", [None, 64, 100, 111])
    def test_compare_matches_unpacked_reference(self, width):
        queries, block, cols = self._case(7)
        w = cols if width is None else width
        expected = (
            block[None, :, :w] == queries[:, None, :w]
        ).all(axis=2)
        got = compare_many_packed(
            pack_rows(queries), pack_rows(block), width_mask(cols, width)
        )
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("width", [None, 64, 100, 111])
    def test_hamming_matches_unpacked_reference(self, width):
        queries, block, cols = self._case(11)
        w = cols if width is None else width
        expected = (
            block[None, :, :w] != queries[:, None, :w]
        ).sum(axis=2)
        got = hamming_many_packed(
            pack_rows(queries), pack_rows(block), width_mask(cols, width)
        )
        np.testing.assert_array_equal(got, expected)

    def test_chunked_equals_one_shot(self):
        """Large-Q regression: a tiny chunk budget changes nothing."""
        queries, block, cols = self._case(13, q=211, n=17)
        qw, bw = pack_rows(queries), pack_rows(block)
        mask = width_mask(cols, 111)
        np.testing.assert_array_equal(
            compare_many_packed(qw, bw, mask, chunk_bytes=256),
            compare_many_packed(qw, bw, mask),
        )
        np.testing.assert_array_equal(
            hamming_many_packed(qw, bw, mask, chunk_bytes=256),
            hamming_many_packed(qw, bw, mask),
        )


class TestStoreBasics:
    def test_growth_preserves_contents(self):
        store = BitPlaneStore(rows=8, cols=100)
        rng = np.random.default_rng(0)
        written = []
        for i in range(9):  # forces several capacity doublings
            slot = store.new_slot(f"s{i}")
            bits = rng.integers(0, 2, size=100, dtype=np.uint8)
            store.write_row(slot, 3, bits)
            written.append((slot, bits))
        for slot, bits in written:
            np.testing.assert_array_equal(store.read_row(slot, 3), bits)

    def test_footprint_is_one_eighth_for_aligned_cols(self):
        store = BitPlaneStore(rows=64, cols=256)
        assert store.slot_nbytes * 8 == store.unpacked_slot_nbytes

    def test_copy_row_and_clear(self):
        store = BitPlaneStore(rows=4, cols=65)
        slot = store.new_slot()
        bits = np.ones(65, dtype=np.uint8)
        store.write_row(slot, 0, bits)
        store.copy_row(slot, 0, 2)
        np.testing.assert_array_equal(store.read_row(slot, 2), bits)
        store.clear_slot(slot)
        assert not store.tensor[slot].any()

    def test_slot_bounds_checked(self):
        store = BitPlaneStore(rows=4, cols=64)
        with pytest.raises(IndexError):
            store.read_row(0, 0)


class TestBitFields:
    def test_gather_scatter_round_trip(self):
        store = BitPlaneStore(rows=8, cols=256)
        for i in range(3):
            store.new_slot(f"s{i}")
        rng = np.random.default_rng(42)
        n = 200
        slots = rng.integers(0, 3, size=n)
        rows = rng.integers(0, 8, size=n)
        # 8-bit fields at byte-aligned offsets: duplicates allowed as
        # long as (slot, row, offset) triples are unique
        triples = rng.permutation(3 * 8 * 32)[:n]
        slots = triples // (8 * 32)
        rows = (triples // 32) % 8
        offsets = (triples % 32) * 8
        values = rng.integers(0, 256, size=n)
        store.write_fields(slots, rows, offsets, 8, values)
        np.testing.assert_array_equal(
            store.read_fields(slots, rows, offsets, 8), values
        )

    def test_fields_sharing_a_word_do_not_clobber(self):
        store = BitPlaneStore(rows=2, cols=128)
        store.new_slot()
        slots = np.zeros(8, dtype=np.int64)
        rows = np.zeros(8, dtype=np.int64)
        offsets = np.arange(8) * 8  # all in word 0
        values = np.arange(8) + 1
        store.write_fields(slots, rows, offsets, 8, values)
        np.testing.assert_array_equal(
            store.read_fields(slots, rows, offsets, 8), values
        )

    def test_straddling_fields(self):
        store = BitPlaneStore(rows=2, cols=256)
        store.new_slot()
        offsets = np.array([60, 124])  # 10-bit fields across word seams
        slots = np.zeros(2, dtype=np.int64)
        rows = np.zeros(2, dtype=np.int64)
        values = np.array([0b1010110011, 0b0111001101])
        store.write_fields(slots, rows, offsets, 10, values)
        np.testing.assert_array_equal(
            store.read_fields(slots, rows, offsets, 10), values
        )
        # neighbouring bits stay clear
        total_set = popcount_words(store.tensor[0], axis=None).sum()
        assert total_set == sum(int(v).bit_count() for v in values)

    def test_scatter_respects_prior_contents(self):
        store = BitPlaneStore(rows=1, cols=64)
        store.new_slot()
        store.write_row(0, 0, np.ones(64, dtype=np.uint8))
        store.write_fields(
            np.array([0]), np.array([0]), np.array([8]), 8, np.array([0])
        )
        row = store.read_row(0, 0)
        assert not row[8:16].any()
        assert row[:8].all() and row[16:].all()


class TestSnapshotFormats:
    def _platform(self):
        from repro.core.platform import PimAssembler

        pim = PimAssembler.small(subarrays=2, rows=16, cols=100)
        rng = np.random.default_rng(3)
        for key in list(pim.device.subarray_keys(limit=2)):
            sub = pim.device.subarray_at(key)
            for row in (0, 5, 11):
                sub.write_row(
                    row, rng.integers(0, 2, size=100, dtype=np.uint8)
                )
        return pim

    def test_state_dict_is_fixed_point(self):
        from repro.core.platform import PimAssembler

        pim = self._platform()
        snapshot = pim.state_dict()
        assert snapshot["format"] == 2
        restored = PimAssembler.from_state(snapshot)
        assert restored.state_dict() == snapshot

    def test_v1_unpacked_entries_restore_bit_identical(self):
        """A format-1 journal (MSB-first packbits of uint8 bits) must
        land in packed storage with identical row contents."""
        import base64

        from repro.core.platform import PimAssembler

        pim = self._platform()
        snapshot = pim.state_dict()
        legacy = dict(snapshot)
        legacy.pop("format")
        legacy["subarrays"] = []
        for entry in snapshot["subarrays"]:
            sub = pim.device.subarray_at(tuple(entry["key"]))
            legacy["subarrays"].append(
                {
                    "key": entry["key"],
                    "bits": base64.b64encode(
                        np.packbits(sub.snapshot())
                    ).decode("ascii"),
                    "latch": entry["latch"],
                }
            )
        restored = PimAssembler.from_state(legacy)
        for entry in snapshot["subarrays"]:
            key = tuple(entry["key"])
            np.testing.assert_array_equal(
                restored.device.subarray_at(key).snapshot(),
                pim.device.subarray_at(key).snapshot(),
            )
        # and a re-snapshot of the restored platform is format 2
        assert restored.state_dict()["format"] == 2


class TestConversionCounters:
    def test_boundary_churn_is_counted_per_label(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        with registry.activate():
            store = BitPlaneStore(rows=4, cols=64)
            slot = store.new_slot("bank0")
            store.write_row(slot, 0, np.ones(64, dtype=np.uint8))
            store.read_rows(slot, 0, 3)
        snap = registry.snapshot()
        assert snap["storage.pack_rows"]["value"] == 1
        assert snap["storage.pack_rows.bank0"]["value"] == 1
        assert snap["storage.unpack_rows"]["value"] == 3
        assert snap["storage.bytes"]["value"] == store.nbytes
        assert snap["storage.slots"]["value"] == 1.0
