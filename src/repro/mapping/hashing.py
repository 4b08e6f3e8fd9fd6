"""Hash-based partitioning shared by the hash table and graph mapping.

Both the correlated hash-table partitioning (Fig. 6) and the
interval-block graph partitioning (Fig. 8) spread keys uniformly with
the same multiplicative hash; keeping it in one place guarantees the
two stages agree on locality.  :class:`KeySlotTable`, the host index
of the stored k-mers, hashes with it too.
"""

from __future__ import annotations

import numpy as np

#: 64-bit golden-ratio multiplier (Knuth's multiplicative hashing).
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = 0xFFFFFFFFFFFFFFFF


def mix64(value: int) -> int:
    """Scramble a packed k-mer / node key into 64 well-mixed bits."""
    if value < 0:
        raise ValueError("keys must be non-negative")
    return (value * _GOLDEN) & _MASK64


def kmer_partition(packed: int, partitions: int) -> int:
    """Uniform partition index of a packed key.

    The high 32 bits of the mixed key are used, as the low bits of a
    multiplicative hash are the weakest.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    return int(mix64(packed) >> 32) % partitions


def kmer_partition_array(packed: np.ndarray, partitions: int) -> np.ndarray:
    """Vectorised :func:`kmer_partition` over a uint64 key array.

    Uses NumPy's wrap-around uint64 multiply, which matches the masked
    Python-int arithmetic of :func:`mix64` exactly.
    """
    if partitions <= 0:
        raise ValueError("partitions must be positive")
    keys = np.ascontiguousarray(packed, dtype=np.uint64)
    with np.errstate(over="ignore"):
        mixed = keys * np.uint64(_GOLDEN)
    return ((mixed >> np.uint64(32)) % np.uint64(partitions)).astype(np.int64)


class KeySlotTable:
    """A uint64 key -> non-negative int32 map by open addressing.

    Linear probing from the key's multiplicative hash, over a
    power-of-two table kept at most half full, so a batch of lookups
    or inserts is a few vectorised probe rounds of :attr:`PROBE` cells
    over that batch alone — never a pass over the table.  Each key is
    held once: an insert of a key already present keeps the first
    value.
    """

    #: smallest table; it doubles whenever it would pass half full
    MIN_CAPACITY = 64
    #: cells one vectorised probe round reads per key
    PROBE = 8

    def __init__(self) -> None:
        self._alloc(self.MIN_CAPACITY)
        self._size = 0

    def _alloc(self, capacity: int) -> None:
        self._keys = np.zeros(capacity, dtype=np.uint64)
        #: the value of each cell; -1 marks an empty cell
        self._vals = np.full(capacity, -1, dtype=np.int32)
        self._mask = capacity - 1
        self._shift = 64 - (capacity.bit_length() - 1)

    def __len__(self) -> int:
        return self._size

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Home cell of each key: the top bits of its mixed value."""
        with np.errstate(over="ignore"):
            mixed = keys * np.uint64(_GOLDEN)
        return (mixed >> np.uint64(self._shift)).astype(np.int64)

    def _reserve(self, n: int) -> None:
        """Double the table until ``n`` more keys keep it half full."""
        capacity = self._mask + 1
        if 2 * (self._size + n) <= capacity:
            return
        while 2 * (self._size + n) > capacity:
            capacity *= 2
        keys, vals = self.items()
        self._alloc(capacity)
        self._size = 0
        self.insert(keys, vals)

    def items(self) -> "tuple[np.ndarray, np.ndarray]":
        """Every ``(key, value)``, in table order."""
        live = np.flatnonzero(self._vals >= 0)
        return self._keys[live], self._vals[live]

    def _cells(self, start: np.ndarray, width: int) -> np.ndarray:
        """The ``(len(start), width)`` cells probed from each start."""
        return (start[:, None] + np.arange(width)) & self._mask

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """The value of each key, -1 where absent.

        A probe ends at the key or at an empty cell.  Most keys end at
        their home cell, so the first round reads that cell alone and
        each later round :attr:`PROBE` cells per key.
        """
        start = self._home(keys)
        vals = self._vals[start]
        hit = self._keys[start] == keys
        out = np.where(hit, vals, -1).astype(np.int64)
        pending = np.flatnonzero(~hit & (vals >= 0))
        start = start[pending] + 1
        width = self.PROBE
        while pending.size:
            at = self._cells(start, width)
            vals = self._vals[at]
            hit = (self._keys[at] == keys[pending, None]) & (vals >= 0)
            end = hit | (vals < 0)
            rows = np.arange(pending.size)
            col = end.argmax(axis=1)
            found = hit[rows, col]
            out[pending[found]] = vals[rows[found], col[found]]
            go_on = ~end[rows, col]
            pending = pending[go_on]
            start = start[go_on] + width
        return out

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert distinct keys, none of them present yet.

        Each key claims the first empty cell from its home cell on, in
        rounds read as :meth:`lookup` reads them.  Every claimant of a
        cell writes its own index there; the one that reads it back has
        the cell, and the others probe the same cells again.
        """
        self._reserve(keys.size)
        start = self._home(keys)
        pending = np.arange(keys.size)
        width = 1
        while pending.size:
            at = self._cells(start, width)
            empty = self._vals[at] < 0
            free = np.flatnonzero(empty.any(axis=1))
            claim = pending[free]
            cell = at[free, empty[free].argmax(axis=1)]
            self._vals[cell] = claim
            won = self._vals[cell] == claim
            self._keys[cell[won]] = keys[claim[won]]
            self._vals[cell[won]] = values[claim[won]]
            # a key whose cells were all taken probes on from them
            full = np.ones(pending.size, dtype=bool)
            full[free] = False
            start[full] += width
            full[free[~won]] = True
            pending = pending[full]
            start = start[full]
            width = self.PROBE
        self._size += keys.size

    def add(self, key: int, value: int) -> bool:
        """Insert one key unless it is present; whether it was new."""
        self._reserve(1)
        keys, vals, mask = self._keys, self._vals, self._mask
        at = ((key * _GOLDEN) & _MASK64) >> self._shift
        while vals[at] >= 0:
            if keys[at] == key:
                return False
            at = (at + 1) & mask
        keys[at] = key
        vals[at] = value
        self._size += 1
        return True
