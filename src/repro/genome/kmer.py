"""k-mer extraction, integer packing and software counting.

Three representations coexist, each with its role:

* :class:`~repro.genome.sequence.DnaSequence` slices — readable,
  used by tests and the de Bruijn graph construction;
* **packed integers** (2 bits per base, base code in the low bits of
  higher positions first) — the software hash-table keys;
* **row bit vectors** (via ``DnaSequence.to_bits``) — what actually
  lands in a sub-array row for PIM comparison.

The software counter here is the *golden model* the PIM hash-table
construction is validated against.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.genome.alphabet import BITS_PER_BASE
from repro.genome.sequence import DnaSequence

#: The paper evaluates these k values (Section IV).
PAPER_K_VALUES: tuple[int, ...] = (16, 22, 26, 32)

#: Maximum k packable into a 64-bit integer.
MAX_PACKED_K: int = 32


def pack_kmer(kmer: DnaSequence) -> int:
    """Pack a k-mer (k <= 32) into a 64-bit integer key."""
    k = len(kmer)
    if k == 0:
        raise ValueError("cannot pack an empty k-mer")
    if k > MAX_PACKED_K:
        raise ValueError(f"k={k} exceeds the 64-bit packing limit of {MAX_PACKED_K}")
    value = 0
    for code in kmer.codes:
        value = (value << BITS_PER_BASE) | int(code)
    return value


def unpack_kmer(value: int, k: int) -> DnaSequence:
    """Inverse of :func:`pack_kmer`."""
    if k <= 0 or k > MAX_PACKED_K:
        raise ValueError(f"k must be in 1..{MAX_PACKED_K}")
    if value < 0 or value >= (1 << (BITS_PER_BASE * k)):
        raise ValueError("packed value out of range for this k")
    codes = np.empty(k, dtype=np.uint8)
    for i in range(k - 1, -1, -1):
        codes[i] = value & 0b11
        value >>= BITS_PER_BASE
    return DnaSequence(codes)


def iter_kmers(sequence: DnaSequence, k: int) -> Iterator[DnaSequence]:
    """Overlapping k-mers of one sequence, left to right."""
    yield from sequence.kmers(k)


def iter_packed_kmers(sequence: DnaSequence, k: int) -> Iterator[int]:
    """Packed-integer k-mers with an O(1) rolling update per position."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > MAX_PACKED_K:
        raise ValueError(f"k={k} exceeds the packing limit {MAX_PACKED_K}")
    n = len(sequence)
    if n < k:
        return
    codes = sequence.codes
    mask = (1 << (BITS_PER_BASE * k)) - 1
    value = 0
    for i in range(k):
        value = (value << BITS_PER_BASE) | int(codes[i])
    yield value
    for i in range(k, n):
        value = ((value << BITS_PER_BASE) | int(codes[i])) & mask
        yield value


def packed_kmers_array(sequence: DnaSequence, k: int) -> np.ndarray:
    """All packed k-mers of a sequence as a uint64 array (vectorised)."""
    if k <= 0:
        raise ValueError("k must be positive")
    if k > MAX_PACKED_K:
        raise ValueError(f"k={k} exceeds the packing limit {MAX_PACKED_K}")
    n = len(sequence)
    if n < k:
        return np.zeros(0, dtype=np.uint64)
    codes = sequence.codes.astype(np.uint64)
    count = n - k + 1
    values = np.zeros(count, dtype=np.uint64)
    for offset in range(k):
        values = (values << np.uint64(BITS_PER_BASE)) | codes[offset : offset + count]
    return values


def packed_kmers_batch(
    sequences: Sequence[DnaSequence], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Packed k-mers of many sequences and each k-mer's sequence index.

    One vectorised pass over the concatenated base codes; windows that
    cross a sequence boundary are dropped, so the k-mers equal the
    concatenation of :func:`packed_kmers_array` over the sequences and
    the index array is non-decreasing.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k > MAX_PACKED_K:
        raise ValueError(f"k={k} exceeds the packing limit {MAX_PACKED_K}")
    lengths = np.array([len(seq) for seq in sequences], dtype=np.int64)
    count = int(lengths.sum()) - k + 1
    if count <= 0:
        return np.zeros(0, dtype=np.uint64), np.zeros(0, dtype=np.intp)
    codes = np.concatenate([seq.codes for seq in sequences]).astype(np.uint64)
    values = np.zeros(count, dtype=np.uint64)
    shift = np.uint64(BITS_PER_BASE)
    for offset in range(k):
        values <<= shift
        values |= codes[offset : offset + count]
    owner = np.repeat(np.arange(lengths.size), lengths)[:count]
    inside = np.arange(k, count + k) <= np.cumsum(lengths)[owner]
    return values[inside], owner[inside]


def packed_to_row_bits(packed: np.ndarray, k: int, row_bits: int) -> np.ndarray:
    """Vectorised :func:`kmer_to_row_bits` over packed k-mer integers.

    Returns a ``(len(packed), row_bits)`` uint8 matrix — row ``i`` is
    exactly ``kmer_to_row_bits(unpack_kmer(packed[i], k), row_bits)``.
    The bulk execution engine uses this to materialise whole insert
    batches without any per-k-mer Python work.
    """
    if k <= 0 or k > MAX_PACKED_K:
        raise ValueError(f"k must be in 1..{MAX_PACKED_K}")
    if 2 * k > row_bits:
        raise ValueError(f"k-mer needs {2 * k} bit lines, row only has {row_bits}")
    values = np.ascontiguousarray(packed, dtype=np.uint64)
    # bit line 2i is the high bit of base i (msb_first row layout) and
    # base i sits at packed bits [2(k-1-i), 2(k-1-i)+1]
    positions = np.arange(k)
    shifts = np.empty(2 * k, dtype=np.uint64)
    shifts[0::2] = 2 * (k - 1 - positions) + 1
    shifts[1::2] = 2 * (k - 1 - positions)
    out = np.zeros((values.size, row_bits), dtype=np.uint8)
    out[:, : 2 * k] = (values[:, None] >> shifts[None, :]) & np.uint64(1)
    return out


#: each byte value with its 8 bits reversed
_REVERSED_BYTES = np.array(
    [int(f"{byte:08b}"[::-1], 2) for byte in range(256)], dtype=np.uint8
)


def packed_to_row_words(
    packed: np.ndarray, k: int, row_bits: int
) -> np.ndarray:
    """:func:`packed_to_row_bits` packed 64 bit lines per ``uint64``
    word, LSB first (the store's row layout), as ``(len(packed),
    ceil(row_bits / 64))`` words — without the unpacked bit matrix.

    Bit line ``j`` holds packed bit ``2k - 1 - j``, so a row's first
    word is the key's low ``2k`` bits reversed and the rest are zero.
    """
    if k <= 0 or k > MAX_PACKED_K:
        raise ValueError(f"k must be in 1..{MAX_PACKED_K}")
    if 2 * k > row_bits:
        raise ValueError(f"k-mer needs {2 * k} bit lines, row only has {row_bits}")
    values = np.ascontiguousarray(packed, dtype="<u8").reshape(-1)
    # reverse all 64 bits: the byte order, then each byte's bits
    octets = values.view(np.uint8).reshape(-1, 8)[:, ::-1]
    reversed_ = np.ascontiguousarray(_REVERSED_BYTES[octets]).view("<u8")
    words = np.zeros((values.size, -(-row_bits // 64)), dtype=np.uint64)
    words[:, 0] = reversed_.reshape(-1) >> np.uint64(64 - 2 * k)
    return words


def count_kmers(
    sequences: "Iterable[DnaSequence] | DnaSequence", k: int
) -> Counter:
    """Software k-mer counter: the golden model for the PIM hash table.

    Returns:
        ``Counter`` mapping packed k-mer integers to frequencies —
        exactly the (key, value) pairs the paper's Hashmap procedure
        produces.
    """
    if isinstance(sequences, DnaSequence):
        sequences = [sequences]
    counts: Counter = Counter()
    for sequence in sequences:
        arr = packed_kmers_array(sequence, k)
        if arr.size:
            uniques, freqs = np.unique(arr, return_counts=True)
            for u, f in zip(uniques.tolist(), freqs.tolist()):
                counts[u] += f
    return counts


def kmer_to_row_bits(kmer: DnaSequence, row_bits: int) -> np.ndarray:
    """Lay a k-mer out as a padded sub-array row (2 bits/base + zeros)."""
    bits = kmer.to_bits()
    if bits.size > row_bits:
        raise ValueError(
            f"k-mer needs {bits.size} bit lines, row only has {row_bits}"
        )
    if bits.size < row_bits:
        bits = np.pad(bits, (0, row_bits - bits.size))
    return bits
