"""Bulk bit-plane execution engine.

The paper's throughput comes from *bulk* bit-parallelism: one AAP
command computes a full 256-bit row, and every (bank, MAT) pair runs
the same command on its own sub-array simultaneously.  The scalar
controller models each command as an individual Python call, so the
simulator's wall-clock scales with op count rather than with the
modeled DRAM cycles.  This module restores the proportionality:

* sub-array bits live packed — 64 columns per ``np.uint64`` word — in
  the device-wide :class:`~repro.core.storage.BitPlaneStore`, so a
  compare scan, Hamming profile or popcount over all candidate rows of
  a query is **one** vectorised expression on words (XNOR is
  ``~(a ^ b)``, popcount is ``np.bitwise_count``), and a whole-bank
  slab (every sub-array, one row range) is a single basic-indexing
  view of the store tensor;
* commands are charged through the controller's one
  :class:`~repro.core.scheduler.BatchedAapScheduler`, one call per
  mnemonic, which coalesces independent per-sub-array streams into
  gang issues;
* fault and verify sampling happen batch-wise under the stream
  equivalence rule of :mod:`repro.core.faults` — a fixed seed produces
  the exact per-op sampling sequence of the scalar path.

Equivalence contract
====================

For a fixed seed the bulk engine is bit-identical to the scalar
controller in everything the workloads observe: functional results,
stored row contents (including the temp/x1/x2/x3 compute-row end
state of a scan), resilience event counts, and per-mnemonic ledger
*command counts*.  Two things intentionally differ:

* **modeled time** — the batched scheduler charges the gang makespan
  instead of the serial sum, which is the point of the engine;
* **transient host-path state** — the GRB's last-loaded contents are
  not replayed (every charged ``MEM_RD``/``MEM_WR`` is still counted).

Operations whose scalar path samples the fault RNG *interleaved with
retries* (a detect-retry policy with non-zero fault rates) fall back
to the scalar controller per query, keeping the RNG stream exact; the
batch sampling fast path covers fault-free runs and plain injection
without a verifying engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.isa import RowAddress
from repro.core.storage import (
    compare_many_packed,
    hamming_many_packed,
    pack_rows,
    unpack_rows,
    width_mask,
)

__all__ = [
    "BulkEngine",
    "planes_to_words",
    "scan_end_rows",
    "words_to_planes",
]


# --------------------------------------------------------------------------
# Pure bit-plane kernels (no device, no charging)
# --------------------------------------------------------------------------


def planes_to_words(planes: np.ndarray) -> np.ndarray:
    """LSB-first bit planes ``(bits, w)`` -> per-column int64 words."""
    block = np.asarray(planes, dtype=np.int64)
    weights = np.int64(1) << np.arange(block.shape[0], dtype=np.int64)
    return (block * weights[:, None]).sum(axis=0)


def words_to_planes(words: np.ndarray, bits: int) -> np.ndarray:
    """Per-column integers -> LSB-first bit planes ``(bits, w)``."""
    vals = np.asarray(words, dtype=np.int64)
    shifts = np.arange(bits, dtype=np.int64)
    return ((vals[None, :] >> shifts[:, None]) & 1).astype(np.uint8)


def scan_end_rows(
    slots: np.ndarray,
    temp_row: int,
    x_rows: tuple[int, int, int],
    q_words: np.ndarray,
    read_any: np.ndarray,
    last_words: np.ndarray,
    col_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compute rows a sequential compare scan leaves, for many sub-arrays.

    In sub-array ``slots[i]`` temp and x1 hold its last query
    ``q_words[i]``.  Where ``read_any[i]`` (that scan read at least one
    candidate row), x2 holds the last scanned row (``last_words``, one
    per such sub-array, in order) and x3 its XNOR against the query:
    the trailing uncharged rowclone+compute2 of the scalar
    ``compare_scan``.  The XNOR's complement is tail-masked per the
    pack boundary rule.  Returns ``(slots, rows, words)`` for
    :meth:`~repro.core.storage.BitPlaneStore.scatter_rows`.
    """
    x1, x2, x3 = x_rows
    read = slots[read_any]
    xnor = ~(q_words[read_any] ^ last_words) & col_mask
    n, m = slots.size, read.size
    return (
        np.concatenate((slots, slots, read, read)),
        np.concatenate(
            (
                np.full(n, temp_row),
                np.full(n, x1),
                np.full(m, x2),
                np.full(m, x3),
            )
        ),
        np.concatenate((q_words, q_words, last_words, xnor)),
    )


# --------------------------------------------------------------------------
# The charged bulk engine
# --------------------------------------------------------------------------


@dataclass
class BulkEngine:
    """Vectorised execution of the controller's hot paths.

    Wraps a platform and mirrors the scalar controller's charging,
    fault and verify semantics while computing over packed word blocks
    of the device store.  The caller-visible results and side effects
    match the scalar path per the module-level equivalence contract.
    Every kernel charges through the controller's scheduler and
    flushes it before returning.
    """

    pim: "object"  # PimAssembler (typed loosely: platform imports core)

    # ----- compare scan -----------------------------------------------------

    def compare_scan_batch(
        self,
        temp: RowAddress,
        queries: np.ndarray,
        start_row: int,
        n_rows: int,
        valid_bits: int | None = None,
    ) -> np.ndarray:
        """Many queries scanned against one fixed row block.

        Equivalent to, for each query ``q`` in order::

            controller.write_row(temp, q)
            controller.compare_scan(temp, start_row, n_rows, valid_bits)

        but evaluated as one packed-word expression with one
        gang-charged batch.  Returns an int64 array of hit offsets (-1
        for a miss).  Under a detect policy with live fault rates the
        scalar per-query path is replayed instead (retry draws
        interleave with scan draws, which no batch draw can reproduce).
        """
        ctrl = self.pim.controller
        q = np.asarray(queries, dtype=np.uint8)
        if q.ndim != 2:
            raise ValueError("queries must be a (Q, row_bits) matrix")
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        faults = ctrl.faults
        sampling = (
            faults is not None
            and faults.enabled
            and faults.compute2_rate > 0.0
            and n_rows > 0
        )
        eng = ctrl._verifying()
        if sampling and eng is not None:
            hits = np.empty(q.shape[0], dtype=np.int64)
            for i in range(q.shape[0]):
                ctrl.write_row(temp, q[i])
                hit = ctrl.compare_scan(temp, start_row, n_rows, valid_bits)
                hits[i] = -1 if hit is None else hit
            return hits

        sub = self.pim.device.subarray_at(temp)
        store, slot = sub.store, sub.slot
        width = q.shape[1] if valid_bits is None else valid_bits
        count = q.shape[0]
        q_words = pack_rows(q)
        total_scanned = 0
        last_words = np.empty((0, store.words), dtype=np.uint64)
        if n_rows == 0:
            hits = np.full(count, -1, dtype=np.int64)
        else:
            block = store.block_words(slot, start_row, start_row + n_rows)
            mask = width_mask(sub.cols, width)
            matches = compare_many_packed(q_words, block, mask)
            if sampling:
                # one (Q, n) draw == Q consecutive per-scan draws
                # (row-major stream equivalence); only taken when no
                # engine interleaves retry draws between scans
                rate = faults.compute2_rate
                hamming = hamming_many_packed(q_words, block, mask)
                p_err = np.where(
                    matches,
                    1.0 - (1.0 - rate) ** width,
                    rate ** np.maximum(hamming, 1),
                )
                matches = matches ^ faults.decide((count, n_rows), p_err)
            any_hit = matches.any(axis=1)
            first = np.argmax(matches, axis=1)
            hits = np.where(any_hit, first, -1).astype(np.int64)
            scanned = np.where(any_hit, first + 1, n_rows)
            total_scanned = int(scanned.sum())
            if count:
                last = start_row + int(scanned[-1]) - 1
                last_words = store.block_words(slot, last, last + 1).copy()

        # per query: the temp insert and its x1 staging; per scanned
        # row: AAP copy + AAP XNOR on the sub-array, AND-reduce on the
        # MAT's DPU (its own resource, so it overlaps the next row)
        key = (temp.subarray_key,)
        sched = ctrl.scheduler
        sched.charge("MEM_WR", key, (count,))
        sched.charge("AAP1", key, (count + total_scanned,))
        sched.charge("AAP2", key, (total_scanned,))
        sched.charge("DPU", key, (total_scanned,))
        if eng is not None and total_scanned:
            ctrl._charge_verify(eng, count=total_scanned)
        if count:
            store.scatter_rows(
                *scan_end_rows(
                    np.array([slot]),
                    temp.row,
                    tuple(sub.compute_row(i) for i in (1, 2, 3)),
                    q_words[-1:],
                    np.array([last_words.shape[0] > 0]),
                    last_words,
                    store.col_mask_words,
                )
            )
        sched.flush()
        return hits

    # ----- bulk addition -----------------------------------------------------

    def ripple_add_block(
        self,
        a_rows: Sequence[RowAddress],
        b_rows: Sequence[RowAddress],
        sum_rows: Sequence[RowAddress],
        carry_row: RowAddress,
    ) -> None:
        """Drop-in bulk replacement for ``controller.ripple_add``.

        The 2-cycles-per-bit carry+sum pairs are evaluated as a
        carry-propagate sweep directly on the packed plane words
        (``sum = a ^ b ^ c``, ``c' = (a & b) | (c & (a ^ b))`` per
        plane — no unpacking) and charged as one SUM/TRA batch.
        Falls back to the scalar controller when sum/TRA fault rates
        are live (per-op sampling order).
        """
        ctrl = self.pim.controller
        faults = ctrl.faults
        if (
            faults is not None
            and faults.enabled
            and (faults.sum_rate > 0.0 or faults.tra_rate > 0.0)
        ):
            # live sum/TRA fault rates: keep the per-op RNG draw order
            ctrl.ripple_add(a_rows, b_rows, sum_rows, carry_row)
            return
        if not (len(a_rows) == len(b_rows) == len(sum_rows)):
            raise ValueError("operand bit-plane lists must have equal length")
        if not a_rows:
            raise ValueError("ripple_add needs at least one bit plane")
        key = a_rows[0].subarray_key
        for addr in (*a_rows, *b_rows, *sum_rows, carry_row):
            if addr.subarray_key != key:
                raise ValueError("ripple_add operands must share a sub-array")
        sub = self.pim.device.subarray_at(carry_row)
        store, slot = sub.store, sub.slot
        m = len(a_rows)
        a_words = store.tensor[slot, [r.row for r in a_rows]]
        b_words = store.tensor[slot, [r.row for r in b_rows]]
        carry = np.zeros(store.words, dtype=np.uint64)
        for i, s_i in enumerate(sum_rows):
            x = a_words[i] ^ b_words[i]
            store.set_row_words(slot, s_i.row, x ^ carry)
            carry = (a_words[i] & b_words[i]) | (carry & x)
        store.set_row_words(slot, carry_row.row, carry)
        # the MSB TRA leaves its carry latched (SA state is unpacked)
        sub.sa.load_latch(unpack_rows(carry, sub.cols))
        # scalar equivalence: ripple_add charges one AAP for the
        # carry-row zeroing (RowClone off the constant row), then one
        # SUM + TRA pair per bit plane
        sched = ctrl.scheduler
        sched.charge("AAP1", (key,), (1,))
        sched.charge("SUM", (key,), (m,))
        sched.charge("AAP3", (key,), (m,))
        eng = ctrl._verifying()
        if eng is not None:
            ctrl._charge_verify(eng, count=2 * m)
        sched.flush()
