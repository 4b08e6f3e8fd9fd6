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
"""

from __future__ import annotations

import math
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
    engine: str = "scalar",
) -> np.ndarray:
    """Column-wise sum of many 0/1 rows via in-memory carry-save adds.

    Args:
        pim: the platform (a scratch sub-array is used for all work).
        rows: bit vectors (each at most one row wide).
        subarray_key: which sub-array to compute in.
        engine: ``"scalar"`` executes every compression through the
            controller; ``"bulk"`` computes the sum as one bit-plane
            expression and charges the identical command counts in one
            batch (falls back to scalar under live sum/TRA fault
            rates, whose per-op draw order is part of the contract).

    Returns:
        int64 vector of per-column sums (width = row width).
    """
    if engine not in ("scalar", "bulk"):
        raise ValueError("engine must be 'scalar' or 'bulk'")
    if not rows:
        raise ValueError("need at least one row")
    if engine == "bulk":
        return _wallace_column_sum_bulk(pim, rows, subarray_key)
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


def _wallace_column_sum_bulk(
    pim: PimAssembler,
    rows: Sequence[np.ndarray],
    subarray_key: tuple[int, int, int],
) -> np.ndarray:
    """Bulk bit-plane evaluation of :func:`wallace_column_sum`.

    The column sums are one NumPy reduction; the ledger is charged the
    scalar schedule's exact command and verify counts as one batch.
    The scratch sub-array's transient row contents are not replayed
    (the scalar path overwrites them freely and nothing reads them
    back); runs with live sum/TRA fault rates use the scalar path so
    the RNG stream stays per-op exact.
    """
    ctrl = pim.controller
    faults = ctrl.faults
    if (
        faults is not None
        and faults.enabled
        and (faults.sum_rate > 0.0 or faults.tra_rate > 0.0)
    ):
        return wallace_column_sum(pim, rows, subarray_key, engine="scalar")

    checkpoint()  # per-reduction cancellation point (bulk path)
    width = pim.row_bits
    staged = []
    for bits in rows:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size > width:
            raise ValueError(f"row of {arr.size} bits exceeds width {width}")
        if arr.size < width:
            arr = np.pad(arr, (0, width - arr.size))
        staged.append(arr)
    total = np.stack(staged).astype(np.int64).sum(axis=0)

    compressions, bits_needed, zero_planes = _wallace_schedule(len(staged))
    pairs = compressions + bits_needed  # one SUM + TRA pair each
    key = (subarray_key,)
    sched = ctrl.scheduler
    sched.charge("MEM_WR", key, (len(staged) + zero_planes,))
    sched.charge("LATCH_LD", key, (compressions,))
    # scalar equivalence: the final ripple_add zeroes its carry row
    # with one charged AAP (RowClone off the constant row)
    sched.charge("AAP1", key, (1,))
    sched.charge("SUM", key, (pairs,))
    sched.charge("AAP3", key, (pairs,))
    sched.charge("MEM_RD", key, (bits_needed + 1,))
    eng = ctrl._verifying()
    if eng is not None:
        ctrl._charge_verify(eng, count=2 * pairs)
    sched.flush()
    return total


def _bucket_edges(
    graph: DeBruijnGraph, nodes: Sequence[int], width: int
) -> dict[str, list[tuple[dict[int, int], list[int], list[int]]]]:
    """Bucket every edge by the width-``width`` chunk of ``nodes`` it hits.

    One :meth:`DeBruijnGraph.edges` pass serves every chunk and both
    directions — the paper's interval-block partitioning.  Per
    direction and chunk the bucket holds ``(row_of, row_ids, cols)``:
    the row index of each key vertex in first-seen edge order, and one
    ``(row, column)`` hit per edge, so :func:`_dense_rows` rebuilds
    exactly the rows a per-chunk scan would, in the same order.
    """
    place = {node: divmod(i, width) for i, node in enumerate(nodes)}
    n_chunks = -(-len(nodes) // width)
    buckets = {
        direction: [({}, [], []) for _ in range(n_chunks)]
        for direction in ("in", "out")
    }
    ins, outs = buckets["in"], buckets["out"]
    for edge in graph.edges():
        for chunks, key_node, chunk_node in (
            (ins, edge.source, edge.target),
            (outs, edge.target, edge.source),
        ):
            spot = place.get(chunk_node)
            if spot is not None:
                row_of, row_ids, cols = chunks[spot[0]]
                row_ids.append(row_of.setdefault(key_node, len(row_of)))
                cols.append(spot[1])
    return buckets


def _dense_rows(
    bucket: tuple[dict[int, int], list[int], list[int]], width: int
) -> list[np.ndarray]:
    """One chunk's bucket as 0/1 adjacency rows of ``width`` columns."""
    row_of, row_ids, cols = bucket
    rows = np.zeros((len(row_of), width), dtype=np.uint8)
    rows[row_ids, cols] = 1
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
    (bucket,) = _bucket_edges(graph, chunk_nodes, width)[direction]
    return _dense_rows(bucket, width)


def degree_vectors_pim(
    pim: PimAssembler,
    graph: DeBruijnGraph,
    subarray_key: tuple[int, int, int] = (0, 0, 0),
    engine: str = "scalar",
) -> tuple[dict[int, int], dict[int, int]]:
    """In/out degrees of every vertex via in-memory column sums.

    Chunks the vertex set by the row width (the ``n <= f`` rule),
    buckets the edges by chunk in one pass, and accumulates each
    chunk's degree vectors with :func:`wallace_column_sum`
    (``engine="bulk"`` batches each chunk's whole reduction).

    Warning:
        the scratch sub-array's data rows are freely overwritten — run
        this *after* any hash-table contents in that sub-array have
        been read back (the pipeline's traverse phase does).

    Returns:
        ``(in_degree, out_degree)`` dictionaries over packed node keys.
    """
    nodes = sorted(graph.nodes())
    width = pim.row_bits
    buckets = _bucket_edges(graph, nodes, width)
    in_deg: dict[int, int] = {}
    out_deg: dict[int, int] = {}
    for index, lo in enumerate(range(0, len(nodes), width)):
        chunk = nodes[lo : lo + width]
        for direction, out in (("in", in_deg), ("out", out_deg)):
            checkpoint()  # per-chunk cancellation point
            rows = _dense_rows(buckets[direction][index], len(chunk))
            if rows:
                sums = wallace_column_sum(
                    pim, rows, subarray_key, engine=engine
                )
            else:
                sums = np.zeros(width, dtype=np.int64)
            for i, node in enumerate(chunk):
                out[node] = int(sums[i])
    return in_deg, out_deg


def planes_needed(row_count: int) -> int:
    """Bit planes needed to hold a column sum of ``row_count`` rows."""
    if row_count <= 0:
        raise ValueError("row_count must be positive")
    return max(1, math.ceil(math.log2(row_count + 1)))
