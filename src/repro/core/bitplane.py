"""Bulk bit-plane execution: the equivalence contract and shared kernels.

The paper's throughput comes from *bulk* bit-parallelism: one AAP
command computes a full 256-bit row, and every (bank, MAT) pair runs
the same command on its own sub-array simultaneously.  The scalar
controller models each command as an individual Python call, so the
simulator's wall-clock scales with op count rather than with the
modeled DRAM cycles.  The bulk paths of the hashmap
(:mod:`repro.assembly.hashmap`) and the Wallace adjacency reduction
(:mod:`repro.mapping.adjacency`) restore the proportionality:

* sub-array bits live packed — 64 columns per ``np.uint64`` word — in
  the device-wide :class:`~repro.core.storage.BitPlaneStore`, so a
  whole round of scans is a fixed number of vectorised expressions on
  words (XNOR is ``~(a ^ b)``), and a whole-bank slab is a single
  basic-indexing view of the store tensor;
* commands are priced by the controller's one
  :class:`~repro.core.scheduler.BatchedAapScheduler`, one
  ``flush_segments`` call per kernel, which coalesces independent
  per-sub-array streams into gang issues;
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
retries* (a detect-retry policy with non-zero fault rates) replay the
scalar controller path, keeping the RNG stream exact.
"""

from __future__ import annotations

import numpy as np

__all__ = ["scan_end_rows"]


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
