"""Columnar packed bit-plane storage: one uint64 tensor per device.

Every sub-array used to own a private ``(rows, cols)`` ``np.uint8``
matrix — one full byte per bit, one Python object per sub-array.  The
paper's throughput model is the opposite shape: all (bank, MAT) pairs
execute the same AAP on their own sub-array *simultaneously*, so the
natural host mirror is one contiguous tensor holding the bits of every
instantiated sub-array, packed 64 columns per machine word::

    tensor[slot, row, word]            # np.uint64, word = column/64

:class:`BitPlaneStore` owns that tensor.  Sub-arrays become lightweight
view handles (a slot index plus a store reference); whole-bank kernels
(the hashmap and adjacency bulk paths) index the tensor directly and
compute XNOR/popcount/compare over packed words — XNOR is ``~(a ^ b)``
on uint64, popcount is ``np.bitwise_count`` (16-bit lookup table
fallback) — across all sub-arrays in one NumPy expression.

Pack boundary rule
==================

Packed words are an internal representation with one invariant: **tail
bits (column indices >= cols in the last word) are always zero.**  Only
this module, :mod:`repro.core.bitplane` and the hashmap bulk path may
touch words; everything else (controller, sense amplifier, DPU, tests)
sees unpacked 0/1 ``uint8`` rows through the pack/unpack
adapters below.  Any operation that can set tail bits (``~`` in
particular) must mask with :meth:`BitPlaneStore.col_mask` before
storing, so ``pack(unpack(x)) == x`` holds for every stored word.

Growth
======

A full default device holds 32 768 sub-arrays (~1 GB packed), so the
tensor cannot be allocated eagerly; capacity doubles as
:meth:`BitPlaneStore.new_slot` hands out slots.  Growth *reallocates
the tensor*: never hold a word view across a call that may instantiate
a sub-array.

Observability: the store maintains a ``storage.bytes`` gauge and
per-label (per-bank) ``storage.pack_rows.<label>`` /
``storage.unpack_rows.<label>`` conversion counters, so
boundary-crossing churn — the packed-era performance bug class — is
visible in ``inspect`` and ``metrics.json``.
"""

from __future__ import annotations

import sys

import numpy as np

from repro.observability.metrics import (
    STORAGE_BYTES,
    STORAGE_SLOTS,
    inc,
    set_gauge,
)

__all__ = [
    "WORD_BITS",
    "BitPlaneStore",
    "col_mask",
    "pack_rows",
    "popcount_words",
    "unpack_rows",
    "words_for",
]

#: columns per packed machine word
WORD_BITS = 64

_FULL = np.uint64(0xFFFFFFFFFFFFFFFF)

try:  # numpy >= 2.0
    _bit_count = np.bitwise_count
except AttributeError:  # pragma: no cover - exercised only on old numpy
    _POP16 = np.array(
        [bin(i).count("1") for i in range(1 << 16)], dtype=np.uint8
    )

    def _bit_count(words: np.ndarray) -> np.ndarray:
        w = np.asarray(words, dtype=np.uint64)
        total = _POP16[(w & np.uint64(0xFFFF)).astype(np.intp)].astype(
            np.uint8
        )
        for shift in (16, 32, 48):
            part = (w >> np.uint64(shift)) & np.uint64(0xFFFF)
            total = total + _POP16[part.astype(np.intp)]
        return total


def words_for(cols: int) -> int:
    """Packed words per row: ``ceil(cols / 64)``."""
    if cols <= 0:
        raise ValueError("cols must be positive")
    return -(-cols // WORD_BITS)


def col_mask(cols: int) -> np.ndarray:
    """``(words,)`` uint64 mask with the first ``cols`` bits set.

    The last word's mask is the tail mask: storing anything ANDed with
    this preserves the tail-bits-are-zero invariant.
    """
    w = words_for(cols)
    mask = np.full(w, _FULL, dtype=np.uint64)
    tail = cols % WORD_BITS
    if tail:
        mask[-1] = np.uint64((1 << tail) - 1)
    return mask


def width_mask(cols: int, width: int | None) -> np.ndarray:
    """Mask covering the first ``width`` of ``cols`` columns."""
    if width is None or width >= cols:
        return col_mask(cols)
    if width <= 0:
        raise ValueError("width must be positive")
    w = words_for(cols)
    mask = np.zeros(w, dtype=np.uint64)
    full_words = width // WORD_BITS
    mask[:full_words] = _FULL
    tail = width % WORD_BITS
    if tail:
        mask[full_words] = np.uint64((1 << tail) - 1)
    return mask


def pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack unpacked 0/1 rows ``(..., cols)`` into ``(..., words)`` uint64.

    Column ``c`` lands in word ``c // 64``, bit ``c % 64`` (LSB-first),
    independent of host endianness; tail bits are zero by construction.
    """
    arr = np.ascontiguousarray(bits, dtype=np.uint8)
    cols = arr.shape[-1]
    words = words_for(cols)
    packed = np.packbits(arr, axis=-1, bitorder="little")
    pad = words * 8 - packed.shape[-1]
    if pad:
        packed = np.concatenate(
            [packed, np.zeros(arr.shape[:-1] + (pad,), dtype=np.uint8)],
            axis=-1,
        )
    out = np.ascontiguousarray(packed).view("<u8")
    if out.dtype != np.uint64:  # pragma: no cover - big-endian host
        out = out.astype(np.uint64)
    return out


def unpack_rows(words: np.ndarray, cols: int) -> np.ndarray:
    """Unpack ``(..., words)`` uint64 back to 0/1 rows ``(..., cols)``."""
    arr = np.asarray(words)
    if arr.shape[-1] != words_for(cols):
        raise ValueError(
            f"expected {words_for(cols)} words for {cols} columns, "
            f"got {arr.shape[-1]}"
        )
    if sys.byteorder == "little":
        by = np.ascontiguousarray(arr, dtype=np.uint64).view(np.uint8)
    else:  # pragma: no cover - big-endian host
        by = arr.astype("<u8").view(np.uint8)
    return np.unpackbits(by, axis=-1, bitorder="little", count=cols)


def popcount_words(words: np.ndarray, axis: int | None = -1) -> np.ndarray:
    """Per-element popcount summed over ``axis`` (int64)."""
    counts = _bit_count(np.asarray(words, dtype=np.uint64)).astype(np.int64)
    if axis is None:
        return counts
    return counts.sum(axis=axis)


class BitPlaneStore:
    """Packed bit storage for every sub-array of one device.

    Layout: ``tensor[slot, row, word]`` with C-contiguous strides
    ``(rows * words, words, 1)`` uint64 elements — a whole-bank slab
    (all slots, one row range) is one basic-indexing view.
    """

    def __init__(self, rows: int, cols: int) -> None:
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        self.rows = rows
        self.cols = cols
        self.words = words_for(cols)
        #: full-row mask; ``_col_mask[-1]`` is the tail mask
        self._col_mask = col_mask(cols)
        self._tensor = np.zeros((0, rows, self.words), dtype=np.uint64)
        self._n_slots = 0
        self._labels: list[str] = []
        #: optional SECDED sidecar: one code byte per stored word,
        #: maintained by every mutator once :meth:`enable_ecc` ran
        self._ecc: "np.ndarray | None" = None
        self._ecc_encoder = None
        self._ecc_rows_encoded = 0

    # ----- geometry / bookkeeping -----------------------------------------

    @property
    def n_slots(self) -> int:
        return self._n_slots

    @property
    def nbytes(self) -> int:
        """Bytes of the (capacity-sized) backing tensor."""
        return int(self._tensor.nbytes)

    @property
    def slot_nbytes(self) -> int:
        """Packed bytes of one sub-array's bits."""
        return self.rows * self.words * 8

    @property
    def unpacked_slot_nbytes(self) -> int:
        """What one sub-array cost in the uint8-per-bit representation."""
        return self.rows * self.cols

    @property
    def tensor(self) -> np.ndarray:
        """The live packed tensor (bulk kernels only; see the pack
        boundary rule in the module docstring).  Invalidated by
        :meth:`new_slot`."""
        return self._tensor

    @property
    def col_mask_words(self) -> np.ndarray:
        """Read-only full-row column mask ``(words,)``."""
        return self._col_mask

    def new_slot(self, label: str = "unbound") -> int:
        """Claim the next slot (growing the tensor by doubling)."""
        return self.new_slots([label])

    def new_slots(self, labels: "list[str]") -> int:
        """Claim one slot per label, growing the tensor at most once to
        the capacity that claiming them one by one would reach; returns
        the first slot."""
        first = self._n_slots
        needed = first + len(labels)
        capacity = self._tensor.shape[0]
        if needed > capacity:
            while needed > capacity:
                capacity = max(1, capacity * 2)
            grown = np.zeros(
                (capacity, self.rows, self.words), dtype=np.uint64
            )
            if first:
                grown[:first] = self._tensor[:first]
            self._tensor = grown
            if self._ecc is not None:
                grown_ecc = np.zeros(
                    (capacity, self.rows, self.words), dtype=np.uint8
                )
                if first:
                    grown_ecc[:first] = self._ecc[:first]
                self._ecc = grown_ecc
        self._n_slots = needed
        self._labels.extend(labels)
        set_gauge(STORAGE_BYTES, float(self._tensor.nbytes))
        set_gauge(STORAGE_SLOTS, float(self._n_slots))
        return first

    def _check_slot(self, slot: int) -> int:
        if not 0 <= slot < self._n_slots:
            raise IndexError(f"slot {slot} out of range 0..{self._n_slots - 1}")
        return slot

    def _count(self, direction: str, slot: int, n: int) -> None:
        inc(f"storage.{direction}_rows", n)
        inc(f"storage.{direction}_rows.{self._labels[slot]}", n)

    # ----- SECDED sidecar (repro.core.integrity) ---------------------------

    @property
    def ecc_enabled(self) -> bool:
        return self._ecc is not None

    @property
    def ecc_plane(self) -> np.ndarray:
        """Live code-byte tensor ``[slot, row, word] -> uint8`` (the
        scrubber's view); raises when ECC was never enabled."""
        if self._ecc is None:
            raise ValueError("ECC sidecar is not enabled on this store")
        return self._ecc

    def enable_ecc(self, encoder) -> None:
        """Attach a per-word codec and encode every claimed slot.

        ``encoder`` maps a uint64 word array to a same-shape uint8 code
        array (see :func:`repro.core.integrity.encode_secded`; passed as
        a callable so storage stays import-free of the codec).  Idempotent
        re-enables simply re-encode.  Every later mutator keeps the
        touched rows' code bytes coherent and tallies the re-encoded
        rows; the integrity engine drains that tally to charge ECC_ENC
        work, so sidecar maintenance is never free.
        """
        self._ecc_encoder = encoder
        self._ecc = np.zeros(self._tensor.shape, dtype=np.uint8)
        if self._n_slots:
            self._ecc[: self._n_slots] = encoder(self._tensor[: self._n_slots])
            self._ecc_rows_encoded += self._n_slots * self.rows

    def drain_encoded_rows(self) -> int:
        """Rows re-encoded since the last drain (for ECC_ENC charging)."""
        n = self._ecc_rows_encoded
        self._ecc_rows_encoded = 0
        return n

    def defer_encoded_rows(self, rows: int) -> None:
        """Add ``rows`` to what the next drain reports: a writer that
        books its re-encodes itself leaves the rows of one read for a
        later drain."""
        self._ecc_rows_encoded += rows

    def _reencode_row(self, slot: int, row: int) -> None:
        if self._ecc is not None:
            self._ecc[slot, row] = self._ecc_encoder(self._tensor[slot, row])
            self._ecc_rows_encoded += 1

    # ----- packed word access (bulk kernels) ------------------------------

    def row_words(self, slot: int, row: int) -> np.ndarray:
        """Live ``(words,)`` view of one row (no conversion)."""
        return self._tensor[self._check_slot(slot), row]

    def block_words(self, slot: int, start: int, stop: int) -> np.ndarray:
        """Live ``(stop-start, words)`` view of a row block."""
        return self._tensor[self._check_slot(slot), start:stop]

    def set_row_words(self, slot: int, row: int, words: np.ndarray) -> None:
        """Store one row of packed words (caller upholds the tail rule)."""
        self._tensor[self._check_slot(slot), row] = words
        self._reencode_row(slot, row)

    def scatter_rows(
        self, slots: np.ndarray, rows: np.ndarray, words: np.ndarray
    ) -> None:
        """Store ``words[i]`` at ``(slots[i], rows[i])`` in one scatter.

        The ``(slot, row)`` pairs must be distinct and the caller
        upholds the tail rule.  The SECDED sidecar is re-encoded for
        exactly the rows written, and each counts once towards
        :meth:`drain_encoded_rows`, as :meth:`set_row_words` per row
        would.
        """
        s = np.asarray(slots, dtype=np.intp)
        r = np.asarray(rows, dtype=np.intp)
        if s.size and not (0 <= s.min() and s.max() < self._n_slots):
            raise IndexError(f"slots out of range 0..{self._n_slots - 1}")
        self._tensor[s, r] = words
        if self._ecc is not None:
            self._ecc[s, r] = self._ecc_encoder(self._tensor[s, r])
            self._ecc_rows_encoded += int(s.size)

    def copy_row(self, slot: int, src: int, des: int) -> None:
        """RowClone: pure word copy, no conversion."""
        t = self._tensor[self._check_slot(slot)]
        t[des] = t[src]
        if self._ecc is not None:
            # the clone carries the source's code bytes verbatim —
            # no re-encode work
            e = self._ecc[slot]
            e[des] = e[src]

    def clear_slot(self, slot: int) -> None:
        self._tensor[self._check_slot(slot)].fill(0)
        if self._ecc is not None:
            # the SECDED code of the all-zero word is zero
            self._ecc[slot].fill(0)

    # ----- unpacked uint8 boundary (controller / host path) ---------------

    def read_row(self, slot: int, row: int) -> np.ndarray:
        """One row as a fresh unpacked 0/1 uint8 array."""
        self._count("unpack", slot, 1)
        return unpack_rows(self._tensor[self._check_slot(slot), row], self.cols)

    def read_rows(self, slot: int, start: int, stop: int) -> np.ndarray:
        """A row block as fresh unpacked 0/1 uint8 rows."""
        self._count("unpack", slot, max(0, stop - start))
        return unpack_rows(
            self._tensor[self._check_slot(slot), start:stop], self.cols
        )

    def write_row(self, slot: int, row: int, bits: np.ndarray) -> None:
        """Pack one unpacked 0/1 row into storage."""
        self._count("pack", slot, 1)
        self._tensor[self._check_slot(slot), row] = pack_rows(bits)
        self._reencode_row(slot, row)

    def snapshot_slot(self, slot: int) -> np.ndarray:
        """Full unpacked ``(rows, cols)`` copy of one slot (debug/tests);
        not counted as boundary churn."""
        return unpack_rows(self._tensor[self._check_slot(slot)], self.cols)

    # ----- packed bit-field access (hash-table counters) ------------------

    def read_fields(
        self,
        slots: np.ndarray,
        rows: np.ndarray,
        bit_offsets: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """Gather ``width``-bit fields at ``(slot, row, bit)`` positions.

        Vectorised over the index arrays; fields may straddle two
        adjacent words.  Returns int64 values.
        """
        if not 0 < width <= WORD_BITS:
            raise ValueError("field width must be in 1..64")
        s = np.asarray(slots, dtype=np.intp)
        r = np.asarray(rows, dtype=np.intp)
        bit = np.asarray(bit_offsets, dtype=np.int64)
        w0 = (bit // WORD_BITS).astype(np.intp)
        off = (bit % WORD_BITS).astype(np.uint64)
        lo = self._tensor[s, r, w0] >> off
        spill = (bit % WORD_BITS) + width > WORD_BITS
        if np.any(spill):
            hi = self._tensor[s[spill], r[spill], w0[spill] + 1]
            lo = lo.copy()
            lo[spill] |= hi << (np.uint64(WORD_BITS) - off[spill])
        fmask = (
            _FULL
            if width == WORD_BITS
            else np.uint64((1 << width) - 1)
        )
        return (lo & fmask).astype(np.int64)

    def write_fields(
        self,
        slots: np.ndarray,
        rows: np.ndarray,
        bit_offsets: np.ndarray,
        width: int,
        values: np.ndarray,
    ) -> None:
        """Scatter ``width``-bit fields (read-modify-write on words).

        Duplicate ``(slot, row, word)`` targets are applied
        sequentially via ``ufunc.at``, so two fields sharing a word
        never clobber each other.
        """
        if not 0 < width <= WORD_BITS:
            raise ValueError("field width must be in 1..64")
        s = np.asarray(slots, dtype=np.int64)
        r = np.asarray(rows, dtype=np.int64)
        bit = np.asarray(bit_offsets, dtype=np.int64)
        fmask = (
            _FULL
            if width == WORD_BITS
            else np.uint64((1 << width) - 1)
        )
        vals = np.asarray(values).astype(np.uint64) & fmask
        flat = self._tensor.reshape(-1)
        base = (s * self.rows + r) * self.words
        w0 = bit // WORD_BITS
        off = (bit % WORD_BITS).astype(np.uint64)
        idx = base + w0
        np.bitwise_and.at(flat, idx, ~(fmask << off))
        np.bitwise_or.at(flat, idx, vals << off)
        spill = (bit % WORD_BITS) + width > WORD_BITS
        if np.any(spill):
            sh = np.uint64(WORD_BITS) - off[spill]
            np.bitwise_and.at(flat, idx[spill] + 1, ~(fmask >> sh))
            np.bitwise_or.at(flat, idx[spill] + 1, vals[spill] >> sh)
        if self._ecc is not None:
            # distinct rows, ascending (sorted, not np.unique, whose
            # hash path is ~10x slower on int64 keys)
            touched = np.sort(s * self.rows + r)
            fresh = np.ones(touched.size, dtype=bool)
            fresh[1:] = touched[1:] != touched[:-1]
            touched = touched[fresh]
            su = (touched // self.rows).astype(np.intp)
            ru = (touched % self.rows).astype(np.intp)
            self._ecc[su, ru] = self._ecc_encoder(self._tensor[su, ru])
            self._ecc_rows_encoded += int(touched.size)
