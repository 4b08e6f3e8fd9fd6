"""Adjacency-matrix mapping and bulk degree computation (paper Fig. 8).

The traversal stage needs every vertex's in/out degree.  The paper maps
the (sub-)graph's adjacency matrix onto consecutive sub-array rows and
sums them with parallel in-memory addition: "PIM-Assembler takes every
three rows to perform a parallel in-memory addition ... results written
back to the reserved space ... then multi-bit addition of resultant
data ... concluded after 2 x m cycles".

That is a carry-save (Wallace) reduction in bit-plane space:

* every adjacency row is a weight-0 bit plane of column-wise partial
  sums;
* a 3:2 compression turns three weight-w planes into one weight-w sum
  plane and one weight-(w+1) carry plane (:meth:`Controller.compress_3to2`);
* when at most two planes remain per weight, a final bit-serial ripple
  add (2 cycles/bit) produces the degree vector.

:func:`wallace_column_sum` implements exactly that schedule on the
functional simulator; :func:`degree_vectors_pim` applies it to a de
Bruijn graph chunk by chunk (each chunk covers up to one row width of
vertices, the ``n <= f = min(a, b)`` allocation rule of Section III).
On the bulk engine the degrees are the columnar graph's ``bincount``
arrays and only each chunk's row counts are derived, so every chunk
and direction's reduction is charged in one batched
``flush_segments`` call with the scalar schedule's exact counts.
Either way the degrees come back as int64 arrays by node id.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from typing import Sequence

import numpy as np

from typing import TYPE_CHECKING

from repro.core.isa import RowAddress
from repro.errors import AllocationError
from repro.runtime.watchdog import checkpoint

if TYPE_CHECKING:  # import cycle: assembly.pipeline uses this module
    from repro.assembly.debruijn import DeBruijnGraph
from repro.core.platform import PimAssembler


class _ScratchRows:
    """Free-list of physical data rows inside one scratch sub-array."""

    def __init__(self, pim: PimAssembler, subarray_key: tuple[int, int, int]) -> None:
        self.pim = pim
        self.key = subarray_key
        sub = pim.device.subarray_at(subarray_key)
        self._free = list(range(sub.geometry.data_rows - 1, -1, -1))

    def take(self) -> RowAddress:
        if not self._free:
            raise AllocationError(f"scratch sub-array {self.key} exhausted")
        bank, mat, sub = self.key
        return RowAddress(bank=bank, mat=mat, subarray=sub, row=self._free.pop())

    def give(self, address: RowAddress) -> None:
        self._free.append(address.row)


def wallace_column_sum(
    pim: PimAssembler,
    rows: Sequence[np.ndarray],
    subarray_key: tuple[int, int, int] = (0, 0, 0),
) -> np.ndarray:
    """Column-wise sum of many 0/1 rows via in-memory carry-save adds.

    Every compression executes through the controller; the bulk engine
    charges the same schedule's command counts with
    :func:`_charge_wallace` instead.

    Args:
        pim: the platform (a scratch sub-array is used for all work).
        rows: bit vectors (each at most one row wide).
        subarray_key: which sub-array to compute in.

    Returns:
        int64 vector of per-column sums (width = row width).
    """
    if not rows:
        raise ValueError("need at least one row")
    scratch = _ScratchRows(pim, subarray_key)
    ctrl = pim.controller
    width = pim.row_bits

    # Stage the input rows as weight-0 planes.
    buckets: dict[int, list[RowAddress]] = defaultdict(list)
    for bits in rows:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size > width:
            raise ValueError(f"row of {arr.size} bits exceeds width {width}")
        if arr.size < width:
            arr = np.pad(arr, (0, width - arr.size))
        addr = scratch.take()
        ctrl.write_row(addr, arr)
        buckets[0].append(addr)

    # Carry-save reduction: 3 planes of weight w -> sum(w) + carry(w+1).
    changed = True
    while changed:
        changed = False
        for weight in sorted(buckets):
            while len(buckets[weight]) >= 3:
                checkpoint()  # per-compression cancellation point
                r1 = buckets[weight].pop()
                r2 = buckets[weight].pop()
                r3 = buckets[weight].pop()
                sum_row = scratch.take()
                carry_row = scratch.take()
                ctrl.compress_3to2(r1, r2, r3, sum_row, carry_row)
                for r in (r1, r2, r3):
                    scratch.give(r)
                buckets[weight].append(sum_row)
                buckets[weight + 1].append(carry_row)
                changed = True

    # At most two planes per weight remain: form two words and ripple-add.
    max_weight = max(buckets)
    bits_needed = max_weight + 1
    zero = np.zeros(width, dtype=np.uint8)

    def plane_or_zero(weight: int, index: int) -> RowAddress:
        planes = buckets.get(weight, [])
        if index < len(planes):
            return planes[index]
        addr = scratch.take()
        ctrl.write_row(addr, zero)
        return addr

    a_planes = [plane_or_zero(w, 0) for w in range(bits_needed)]
    b_planes = [plane_or_zero(w, 1) for w in range(bits_needed)]
    sum_planes = [scratch.take() for _ in range(bits_needed)]
    carry_row = scratch.take()
    ctrl.ripple_add(a_planes, b_planes, sum_planes, carry_row)

    # Read the result back (sum planes LSB-first plus the final carry).
    total = np.zeros(width, dtype=np.int64)
    for i, plane in enumerate(sum_planes):
        total += ctrl.read_row(plane).astype(np.int64) << i
    total += ctrl.read_row(carry_row).astype(np.int64) << bits_needed
    return total


@functools.lru_cache(maxsize=None)
def _wallace_schedule(n_rows: int) -> tuple[int, int, int]:
    """(compressions, result bits, zero planes) of the scalar schedule.

    Replays :func:`wallace_column_sum`'s control flow over plane
    *counts* only, so the bulk path can charge the exact command
    counts the scalar reduction issues without touching the device.
    """
    counts: dict[int, int] = {0: n_rows}
    compressions = 0
    changed = True
    while changed:
        changed = False
        for weight in sorted(counts):
            while counts[weight] >= 3:
                counts[weight] -= 2  # three planes in, one sum out
                counts[weight + 1] = counts.get(weight + 1, 0) + 1
                compressions += 1
                changed = True
    bits_needed = max(counts) + 1
    zero_planes = sum(2 - counts.get(w, 0) for w in range(bits_needed))
    return compressions, bits_needed, zero_planes


def _live_sum_faults(pim: PimAssembler) -> bool:
    """Live sum/TRA fault rates: their per-op draw order is part of
    the contract, so reductions must run the scalar schedule."""
    faults = pim.controller.faults
    return (
        faults is not None
        and faults.enabled
        and (faults.sum_rate > 0.0 or faults.tra_rate > 0.0)
    )


def _charge_wallace(
    pim: PimAssembler,
    subarray_key: tuple[int, int, int],
    row_counts: Sequence[int],
) -> None:
    """Charge one scalar-equivalent reduction per entry of ``row_counts``.

    Each reduction is its own gang schedule on ``subarray_key``, and all
    of them go through one :meth:`BatchedAapScheduler.flush_segments`
    call: the ledger, trace and ``pim.batch.*`` metrics equal one
    ``charge`` per mnemonic plus ``flush`` per reduction; under a
    detect policy each reduction's parity checks (one per SUM and per
    TRA) lead its records.
    """
    ctrl = pim.controller
    compressions, bits_needed, zero_planes = (
        np.array(column, dtype=np.int64)
        for column in zip(*(_wallace_schedule(n) for n in row_counts))
    )
    pairs = compressions + bits_needed  # one SUM + TRA pair each
    n = pairs.size
    eng = ctrl._verifying()
    verify = 2 * pairs if eng is not None else None
    ctrl.scheduler.flush_segments(
        [subarray_key],
        np.zeros(n, dtype=np.intp),
        np.arange(n),
        [
            ("MEM_WR", np.asarray(row_counts, dtype=np.int64) + zero_planes),
            ("LATCH_LD", compressions),
            # scalar equivalence: the final ripple_add zeroes its carry
            # row with one charged AAP (RowClone off the constant row)
            ("AAP1", np.ones(n, dtype=np.int64)),
            ("SUM", pairs),
            ("AAP3", pairs),
            ("MEM_RD", bits_needed + 1),
        ],
        verify,
    )
    if verify is not None:
        ctrl._note_verify(eng, verify)


def _adjacency_pairs(
    graph: DeBruijnGraph, spot: np.ndarray, width: int, direction: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(chunk, key vertex, column)`` of every edge that hits a chunk.

    ``spot[node id]`` is the vertex's ``chunk * width + column``, or -1
    when it is in no chunk.  ``direction="in"`` puts an edge in its
    target's column of its source's row, ``"out"`` in its source's
    column of its target's row.  Entries are in edge-id order.
    """
    if direction == "in":
        key, placed = graph.sources, graph.targets
    else:
        key, placed = graph.targets, graph.sources
    where = spot[placed]
    on = where >= 0
    chunk, column = np.divmod(where[on], width)
    return chunk, key[on], column


def _adjacency_hits(
    graph: DeBruijnGraph,
    spot: np.ndarray,
    width: int,
    n_chunks: int,
    direction: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(row, column, bounds)`` of every hit, grouped by chunk.

    Chunk ``c``'s hits are ``bounds[c]:bounds[c + 1]``.  Its rows are
    numbered by first appearance of their key vertex in edge order, so
    they come out as a per-chunk scan of the edges in edge-id order
    would build them.
    """
    chunk, key, column = _adjacency_pairs(graph, spot, width, direction)
    n = max(graph.num_nodes, 1)
    unique, first, inverse = np.unique(
        chunk * n + key, return_index=True, return_inverse=True
    )
    row_chunk = unique // n
    rank = np.empty(unique.size, dtype=np.int64)
    rank[np.lexsort((first, row_chunk))] = np.arange(unique.size)
    counts = np.bincount(row_chunk, minlength=n_chunks)
    row = rank[inverse.ravel()] - (np.cumsum(counts) - counts)[chunk]
    order = np.argsort(chunk, kind="stable")
    bounds = np.searchsorted(chunk[order], np.arange(n_chunks + 1))
    return row[order], column[order], bounds


def _dense_rows(
    hits: tuple[np.ndarray, np.ndarray, np.ndarray], chunk: int, columns: int
) -> list[np.ndarray]:
    """One chunk's hits as 0/1 adjacency rows of ``columns`` columns."""
    row, column, bounds = hits
    lo, hi = bounds[chunk], bounds[chunk + 1]
    rows = np.zeros((row[lo:hi].max(initial=-1) + 1, columns), dtype=np.uint8)
    rows[row[lo:hi], column[lo:hi]] = 1
    return list(rows)


def adjacency_rows_for_chunk(
    graph: DeBruijnGraph,
    chunk_nodes: Sequence[int],
    direction: str = "in",
) -> list[np.ndarray]:
    """Build the 0/1 adjacency rows whose column sum is a degree vector.

    ``direction="in"``: one row per *source* vertex with a 1 in column
    ``j`` when an edge points to ``chunk_nodes[j]``; the column sum is
    the chunk's in-degree vector.  ``direction="out"``: one row per
    *target* with 1s at its in-neighbours among the chunk — the column
    sum is the out-degree vector.
    """
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    if not chunk_nodes:
        return []
    width = len(chunk_nodes)
    ids = graph.node_ids(chunk_nodes)
    spot = np.full(graph.num_nodes, -1, dtype=np.int64)
    spot[ids[ids >= 0]] = np.flatnonzero(ids >= 0)
    return _dense_rows(
        _adjacency_hits(graph, spot, width, 1, direction), 0, width
    )


def degree_vectors_pim(
    pim: PimAssembler,
    graph: DeBruijnGraph,
    subarray_key: tuple[int, int, int] = (0, 0, 0),
    engine: str = "scalar",
) -> tuple[np.ndarray, np.ndarray]:
    """In/out degrees of every vertex via in-memory column sums.

    Chunks the vertex set, in ascending key order, by the row width
    (the ``n <= f`` rule); each chunk has an in and an out set of
    adjacency rows to reduce.  ``engine="bulk"`` takes the degrees from
    the graph's ``bincount`` arrays (what the bit-plane sums yield) and
    charges every chunk and direction's reduction, in order, through
    one batched flush.  ``engine="scalar"``, and bulk under live
    sum/TRA fault rates, run :func:`wallace_column_sum` chunk by chunk
    over the same rows in the same order.

    Warning:
        the scratch sub-array's data rows are freely overwritten — run
        this *after* any hash-table contents in that sub-array have
        been read back (the pipeline's traverse phase does).

    Returns:
        ``(in_degrees, out_degrees)``: int64 arrays by node id, equal
        to the graph's own.

    Raises:
        ValueError: for an engine other than ``"scalar"`` or ``"bulk"``.
    """
    if engine not in ("scalar", "bulk"):
        raise ValueError("engine must be 'scalar' or 'bulk'")
    width = pim.row_bits
    n_chunks = -(-graph.num_nodes // width)
    # every vertex's chunk * width + column, in ascending key order
    spot = np.empty(graph.num_nodes, dtype=np.int64)
    spot[graph.key_order] = np.arange(graph.num_nodes)
    if engine == "bulk" and not _live_sum_faults(pim):
        # distinct key vertices per chunk (sorted, not np.unique, whose
        # hash path is ~50x slower on these wide keys), chunk-major
        n = max(graph.num_nodes, 1)
        per_direction = []
        for direction in ("in", "out"):
            chunk, key, _ = _adjacency_pairs(graph, spot, width, direction)
            pairs = np.sort(chunk * n + key)
            fresh = np.ones(pairs.size, dtype=bool)
            fresh[1:] = pairs[1:] != pairs[:-1]
            per_direction.append(
                np.bincount(pairs[fresh] // n, minlength=n_chunks)
            )
        row_counts = np.stack(per_direction, axis=1).ravel().tolist()
        for n_rows in row_counts:
            checkpoint()  # per-chunk cancellation point
            if n_rows:
                checkpoint()  # per-reduction cancellation point
        live = [n_rows for n_rows in row_counts if n_rows]
        if live:
            _charge_wallace(pim, subarray_key, live)
        return (
            graph.in_degrees.astype(np.int64),
            graph.out_degrees.astype(np.int64),
        )
    hits = {
        direction: _adjacency_hits(graph, spot, width, n_chunks, direction)
        for direction in ("in", "out")
    }
    in_deg = np.zeros(graph.num_nodes, dtype=np.int64)
    out_deg = np.zeros(graph.num_nodes, dtype=np.int64)
    for index in range(n_chunks):
        ids = graph.key_order[index * width : (index + 1) * width]
        for direction, out in (("in", in_deg), ("out", out_deg)):
            checkpoint()  # per-chunk cancellation point
            rows = _dense_rows(hits[direction], index, ids.size)
            if rows:
                sums = wallace_column_sum(pim, rows, subarray_key)
                out[ids] = sums[: ids.size]
    return in_deg, out_deg
