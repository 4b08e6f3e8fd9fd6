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
* commands are charged through the
  :class:`~repro.core.scheduler.BatchedAapScheduler`, which coalesces
  independent per-sub-array streams into gang issues and fuses the
  XNOR→AND→popcount and carry+sum sequences;
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

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.isa import RowAddress
from repro.core.scheduler import BatchedAapScheduler, BatchReport
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
    """

    pim: "object"  # PimAssembler (typed loosely: platform imports core)
    last_report: BatchReport | None = field(default=None, init=False)

    def __post_init__(self) -> None:
        ctrl = self.pim.controller
        self.scheduler = BatchedAapScheduler(
            ctrl.ledger,
            timing=ctrl.timing,
            energy=ctrl.energy,
            log=getattr(ctrl, "charge_log", None),
        )

    # ----- gating ---------------------------------------------------------

    def sampling_free(self, *mechanisms: str) -> bool:
        """True when none of the mechanisms would draw from the RNG.

        The scalar path skips sampling entirely for zero-rate
        mechanisms, so a batch may only take the vectorised path when
        every mechanism it covers is silent (faults equivalence rule).
        """
        faults = self.pim.controller.faults
        if faults is None or not faults.enabled:
            return True
        return all(faults.rate_for(m) <= 0.0 for m in mechanisms)

    def _verifying(self):
        return self.pim.controller._verifying()

    def charge_verify(self, count: int) -> None:
        """Charge ``count`` parity checks exactly as the scalar path."""
        if count > 0:
            ctrl = self.pim.controller
            ctrl._charge_verify(ctrl.resilience, count=count)

    def flush(self) -> BatchReport:
        """Flush the pending command batch; remembers the report."""
        self.last_report = self.scheduler.flush()
        return self.last_report

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
        eng = self._verifying()
        if sampling and eng is not None:
            hits = np.empty(q.shape[0], dtype=np.int64)
            for i in range(q.shape[0]):
                ctrl.write_row(temp, q[i])
                hit = ctrl.compare_scan(temp, start_row, n_rows, valid_bits)
                hits[i] = -1 if hit is None else hit
            return hits

        sub = self.pim.device.subarray_at(temp)
        store, slot = sub.store, sub.slot
        key = temp.subarray_key
        width = q.shape[1] if valid_bits is None else valid_bits
        count = q.shape[0]
        q_words = pack_rows(q)
        self.scheduler.charge("MEM_WR", key, count)  # temp inserts
        self.scheduler.charge("AAP1", key, count)  # x1 staging
        if n_rows == 0:
            if count:
                self._finish_scan(sub, temp.row, q_words[-1], None)
            self.flush()
            return np.full(count, -1, dtype=np.int64)

        block = store.block_words(slot, start_row, start_row + n_rows)
        mask = width_mask(sub.cols, width)
        matches = compare_many_packed(q_words, block, mask)
        if sampling:
            # one (Q, n) draw == Q consecutive per-scan draws (row-major
            # stream equivalence); only taken when no engine interleaves
            # retry draws between scans
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
        self.scheduler.fused_compare(key, total_scanned)
        if eng is not None:
            self.charge_verify(total_scanned)
        if count:
            last_block_row = start_row + int(scanned[-1]) - 1
            self._finish_scan(
                sub,
                temp.row,
                q_words[-1],
                store.row_words(slot, last_block_row).copy(),
            )
        self.flush()
        return hits

    def _finish_scan(self, sub, temp_row, query_words, last_row_words) -> None:
        """Leave the compute rows as the sequential scan would.

        temp and x1 hold the last query; when at least one candidate
        was scanned, x2 holds the last scanned row and x3 its XNOR
        against the query (the trailing uncharged rowclone+compute2 of
        the scalar ``compare_scan``).  All operands are packed words;
        the XNOR's complement is tail-masked per the pack boundary
        rule.
        """
        store, slot = sub.store, sub.slot
        store.set_row_words(slot, temp_row, query_words)
        x1 = sub.compute_row(1)
        store.set_row_words(slot, x1, query_words)
        if last_row_words is not None:
            x2 = sub.compute_row(2)
            x3 = sub.compute_row(3)
            store.set_row_words(slot, x2, last_row_words)
            xnor = ~(query_words ^ last_row_words) & store.col_mask_words
            store.set_row_words(slot, x3, xnor)

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
        plane — no unpacking) and charged as one fused SUM/TRA batch.
        Falls back to the scalar controller when sum/TRA fault rates
        are live (per-op sampling order).
        """
        ctrl = self.pim.controller
        if not self.sampling_free("sum", "tra"):
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
        # carry-row zeroing (RowClone off the constant row)
        self.scheduler.charge("AAP1", key, 1)
        self.scheduler.fused_add(key, m)
        if self._verifying() is not None:
            self.charge_verify(2 * m)
        self.flush()
