"""Stage 1 — k-mer analysis: the PIM-friendly Hashmap procedure.

This is the paper's reconstructed ``Hashmap(S, k)`` (Fig. 5b) running on
the functional simulator:

* every k-mer of the input is written to the sub-array's **temp row**
  (``MEM_insert``),
* a **parallel in-memory comparison** (``PIM_XNOR`` + the DPU's AND
  unit, Fig. 7) checks it against stored k-mer rows,
* on a hit, the frequency counter in the value region is updated
  (``PIM_Add``-class update; counter fields are 8-bit packed, so the
  non-bulk variant runs on the MAT's DPU),
* on a miss, the temp row is RowCloned into the next free k-mer row and
  its counter set to 1.

K-mers are distributed over sub-arrays by a hash partition — the
paper's *correlated partitioning*, which keeps every query local to one
sub-array and lets different sub-arrays serve different queries
concurrently.

:class:`SoftwareKmerCounter` is the golden model (a plain dict); the
test suite asserts the PIM path produces identical tables.

Execution engines
=================

``engine="scalar"`` (the default, and the golden model) walks the
Hashmap loop k-mer by k-mer through the controller.  ``engine="bulk"``
batch-inserts the k-mers of many reads per sub-array through the bulk
bit-plane engine (:mod:`repro.core.bitplane`): slot assignment, scan
lengths and counter evolution are derived with vectorised NumPy over
the whole batch, memory reaches the identical end state, and the
ledger is charged the identical per-mnemonic command counts as one
gang schedule per read.  Runs with live compare/copy fault rates
replay the scalar per-op path so the fault RNG stream stays exact.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.bitplane import scan_end_rows
from repro.core.grouping import Groups, group
from repro.core.isa import RowAddress
from repro.core.platform import PimAssembler
from repro.core.scheduler import PricedSegments
from repro.core.storage import pack_rows
from repro.errors import JournalError, TableFullError
from repro.genome.kmer import (
    iter_kmers,
    kmer_to_row_bits,
    pack_kmer,
    packed_kmers_batch,
    packed_to_row_bits,
    packed_to_row_words,
    unpack_kmer,
)
from repro.genome.reads import Read
from repro.genome.sequence import DnaSequence
from repro.mapping.hashing import (
    KeySlotTable,
    kmer_partition,
    kmer_partition_array,
)
from repro.mapping.kmer_layout import scaled_layout
from repro.runtime.checkpoint import decode_words, encode_words, require_keys
from repro.runtime.watchdog import checkpoint

__all__ = [
    "BATCH_KMERS",
    "PimKmerCounter",
    "SoftwareKmerCounter",
    "kmer_partition",
]

#: k-mer arrivals after which the pipeline closes a batch of whole
#: reads and hands it to one bulk host call
BATCH_KMERS = 8192


class SoftwareKmerCounter:
    """Golden-model k-mer counter (plain dictionary)."""

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self._counts: Counter = Counter()

    def add_sequence(self, sequence: DnaSequence) -> None:
        for kmer in iter_kmers(sequence, self.k):
            self._counts[pack_kmer(kmer)] += 1

    def add_reads(self, reads: Iterable[Read]) -> None:
        for read in reads:
            self.add_sequence(read.sequence)

    def counts(self) -> Counter:
        return Counter(self._counts)

    def __len__(self) -> int:
        return len(self._counts)


@dataclass(frozen=True)
class _Keys:
    """The distinct keys of a bulk batch, resolved against the table
    before it: their arrival ``groups``, partitions, stored slots (-1
    for a new key) and counter values (0 for a new key)."""

    groups: Groups
    parts: np.ndarray
    slot: np.ndarray
    start: np.ndarray

    def head(self, m: int) -> "_Keys":
        """The keys of the batch's first ``m`` arrivals."""
        keep = self.groups.first < m
        return _Keys(
            self.groups.head(m),
            self.parts[keep],
            self.slot[keep],
            self.start[keep],
        )


@dataclass(frozen=True)
class _Batch:
    """A bulk batch planned by :meth:`PimKmerCounter._plan`.

    Per arrival: ``packed`` (key), ``slots`` (k-mer slot), ``scanned``
    (rows its scan read) and ``pair_of`` (its (read, partition) pair).
    Per distinct key (``keys``): ``key_slot``, counter row, bit offset
    and final value; ``nu`` are the new keys, partition-major and in
    arrival order.  Per touched partition (``touched``, increasing):
    new keys and where they start in ``nu``, its last arrival and the
    read of its first.  Per pair: read, arrivals and misses;
    ``read_starts`` opens each read's pairs.
    """

    keys: _Keys
    packed: np.ndarray
    slots: np.ndarray
    scanned: np.ndarray
    pair_of: np.ndarray
    key_slot: np.ndarray
    vrows: np.ndarray
    vbits: np.ndarray
    final_vals: np.ndarray
    nu: np.ndarray
    touched: np.ndarray
    new_per_part: np.ndarray
    seg_starts: np.ndarray
    last_arrival: np.ndarray
    first_read: np.ndarray
    pair_reads: np.ndarray
    read_starts: np.ndarray
    arr_p: np.ndarray
    miss_p: np.ndarray
    #: :meth:`~repro.core.scheduler.BatchedAapScheduler.flush_segments`
    #: arguments: keys, pair partitions, pair reads, charges, verify
    flush_args: tuple


class PimKmerCounter:
    """The Hashmap procedure on the PIM-Assembler functional simulator.

    Args:
        pim: the platform instance (owns timing/energy accounting).
        k: k-mer length; ``2k`` must fit one row (k <= 128 bases at 256
            columns).
        subarray_keys: which sub-arrays hold table partitions; defaults
            to every sub-array of the device.
        engine: ``"scalar"`` (per-op golden model) or ``"bulk"``
            (batched bit-plane execution; identical tables, end state
            and command counts, gang-scheduled time).
        rot_checkpoints: put a rot checkpoint
            (:meth:`~repro.core.platform.PimAssembler.integrity_sync`)
            after every sequence :meth:`add_sequences` inserts, as the
            pipeline's hashmap stage does.
    """

    def __init__(
        self,
        pim: PimAssembler,
        k: int,
        subarray_keys: Sequence[tuple[int, int, int]] | None = None,
        engine: str = "scalar",
        rot_checkpoints: bool = False,
    ) -> None:
        if k <= 0:
            raise ValueError("k must be positive")
        if engine not in ("scalar", "bulk"):
            raise ValueError("engine must be 'scalar' or 'bulk'")
        geometry = pim.geometry.bank.mat.subarray
        layout = scaled_layout(geometry)
        if k > layout.max_kmer_bases:
            raise ValueError(
                f"k={k} needs {2 * k} bit lines; rows have {geometry.cols}"
            )
        self.pim = pim
        self.k = k
        self.engine = engine
        self.rot_checkpoints = rot_checkpoints
        # default to the *usable* sub-arrays: partitions never land on
        # storage the resilience engine already quarantined
        keys = (
            list(subarray_keys)
            if subarray_keys is not None
            else pim.usable_subarray_keys()
        )
        if not keys:
            raise ValueError("at least one sub-array is required")
        #: the table region's layout, shared by every partition
        self.layout = layout
        #: partition index -> sub-array key
        self._keys = keys
        #: per-partition occupied k-mer slots
        self._occupied = np.zeros(len(keys), dtype=np.int64)
        #: per-partition store slot, cached on the bulk path's first
        #: touch (-1: not yet resolved)
        self._store_slot = np.full(len(keys), -1, dtype=np.int64)
        #: compute rows x1..x3 (``SubArray.compute_row``)
        self._x_rows = tuple(geometry.data_rows + i for i in range(3))
        self._valid_bits = 2 * k
        # the host shadow of the stored k-mers: a key -> slot hash
        # table over all partitions (the partition is a pure function
        # of the key), which the bulk path's lookup reads; sorted by
        # (partition, slot) at use, it gives the table's row order
        # (scrub, readback, journal).  A k-mer a faulted scan missed
        # and stored again keeps its first slot in the table; the later
        # copies are listed apart.
        self._index = KeySlotTable()
        self._copy_keys = np.empty(0, dtype=np.uint64)
        self._copy_slots = np.empty(0, dtype=np.int64)

    # ----- addressing helpers ---------------------------------------------------

    def _addr(self, index: int, row: int) -> RowAddress:
        return RowAddress(*self._keys[index], row=row)

    @property
    def partitions(self) -> int:
        return len(self._keys)

    def _slot_order(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Every stored k-mer row in partition/slot order: its key,
        partition and slot."""
        keys, slots = self._index.items()
        keys = np.concatenate((keys, self._copy_keys))
        slots = np.concatenate((slots, self._copy_slots))
        parts = kmer_partition_array(keys, self.partitions)
        order = np.argsort(parts * self.layout.kmer_rows + slots)
        return keys[order], parts[order], slots[order]

    # ----- the Hashmap procedure ---------------------------------------------------

    def add_kmer(self, kmer: DnaSequence) -> None:
        """One iteration of the Hashmap loop (Fig. 5b)."""
        if len(kmer) != self.k:
            raise ValueError(f"expected a {self.k}-mer, got {len(kmer)} bases")
        self._add_packed_scalar(pack_kmer(kmer), kmer)

    def _add_packed_scalar(
        self, packed: int, kmer: DnaSequence | None = None
    ) -> None:
        checkpoint()  # per-k-mer cancellation point (hashmap inner loop)
        if kmer is None:
            kmer = unpack_kmer(packed, self.k)
        index = kmer_partition(packed, self.partitions)
        occupied = int(self._occupied[index])
        ctrl = self.pim.controller
        layout = self.layout

        # MEM_insert the query into the temp region.
        temp = self._addr(index, layout.temp_row(0))
        bits = kmer_to_row_bits(kmer, self.pim.row_bits)
        ctrl.write_row(temp, bits)

        # Parallel in-memory comparison against the occupied k-mer rows
        # (PIM_XNOR + DPU AND reduce, Fig. 7); the scan stops at the
        # first match, as the DPU's outcome gates the next command.
        match_slot = ctrl.compare_scan(
            temp,
            start_row=layout.kmer_row(0) if occupied else 0,
            n_rows=occupied,
            valid_bits=self._valid_bits,
        )

        if match_slot is not None:
            self._increment(index, match_slot)
        else:
            self._insert_new(index, temp, packed)

    def add_sequence(self, sequence: DnaSequence) -> None:
        self.add_sequences([sequence])

    def add_sequences(self, sequences: "Sequence[DnaSequence]") -> None:
        """Insert many sequences, one gang schedule per sequence.

        Arrival order is the concatenation order, so tables, end state
        and the ledger are identical to calling :meth:`add_sequence`
        per item.  The bulk engine does the host work of the whole
        batch in one pass and still charges each sequence its own gang
        schedule.

        With :attr:`rot_checkpoints` the outcome is that of
        ``add_sequences([s]); pim.integrity_sync()`` per sequence on a
        counter without them, bit for bit.  The bulk engine still
        stores a run of reads in one pass, and cuts it only after a
        read at which a retention window closes.
        """
        if self.engine != "bulk":
            for sequence in sequences:
                for kmer in iter_kmers(sequence, self.k):
                    self.add_kmer(kmer)
                if self.rot_checkpoints:
                    self.pim.integrity_sync()
            return
        packed, owner = packed_kmers_batch(sequences, self.k)
        if packed.size:
            # one cancellation point per sequence that has k-mers
            for _ in range(int(np.count_nonzero(np.diff(owner))) + 1):
                checkpoint()
        self._add_packed_bulk(packed, owner, len(sequences))

    def add_reads(self, reads: Iterable[Read]) -> None:
        self.add_sequences([read.sequence for read in reads])

    # ----- the bulk path ---------------------------------------------------------

    def _replay_scalar(self, packed: np.ndarray) -> None:
        """Run a batch k-mer by k-mer through the scalar golden path."""
        for value in packed.tolist():
            self._add_packed_scalar(int(value))

    def _scan_faults_live(self) -> bool:
        faults = self.pim.controller.faults
        return (
            faults is not None
            and faults.enabled
            and (faults.compute2_rate > 0.0 or faults.copy_rate > 0.0)
        )

    def _resolve_slots(self, parts: np.ndarray) -> None:
        """Cache the store slots of partitions ``parts``, claiming
        untouched sub-arrays in the order given (it fixes the store's
        slot numbering)."""
        if parts.size:
            self._store_slot[parts] = self.pim.device.slots(
                [self._keys[p] for p in parts.tolist()]
            )

    def _add_packed_bulk(
        self, packed: np.ndarray, owner: np.ndarray, n_seqs: int
    ) -> None:
        """Batch-insert packed k-mers of ``n_seqs`` sequences across ALL
        sub-arrays.

        ``owner`` (non-decreasing) names each arrival's sequence.  The
        scalar loop's observable behaviour is reproduced exactly: slot
        assignment follows first arrival, scan lengths follow the
        stop-at-first-match protocol, counters saturate per hit, and
        the ledger receives the identical command counts — charged as
        one gang schedule per read instead of op by op.

        Under rot checkpoints (with an integrity engine attached) each
        read's ledger cells are its verify and schedule cells; then, if
        a retention window has closed, the sync's ``REF`` / ``ECC_CHK``
        / ``ECC_FIX``; then the ``ECC_ENC`` of the rows that read wrote.
        So the remaining reads are priced before anything is stored;
        the reads up to the first checkpoint that closes a window are
        stored as one batch (the plan's head when reads follow it), in
        one stream carrying each earlier read's ``ECC_ENC`` cell; the
        engine syncs, and the rest goes round again.  Rot thus sees
        exactly the store the closing read left.
        """
        pim = self.pim
        integrity = pim.integrity if self.rot_checkpoints else None
        bounds = np.searchsorted(owner, np.arange(n_seqs + 1)).tolist()
        if self._scan_faults_live():
            # live scan/copy fault rates: the per-op RNG draw order is
            # part of the contract, so replay the exact scalar path
            for lo, hi in zip(bounds, bounds[1:]):
                self._replay_scalar(packed[lo:hi])
                if integrity is not None:
                    pim.integrity_sync()
            return
        store = pim.device.store
        scheduler = pim.controller.scheduler
        # sequences per plan: all that remain at first, then twice the
        # last stored run, so a plan stays near one retention window's
        # reads; one at a time once a partition fills up
        seq, span, by_read = 0, n_seqs, False
        while seq < n_seqs:
            lo, hi = bounds[seq], bounds[seq + 1]
            if lo == hi:  # a sequence shorter than k: a bare checkpoint
                if integrity is not None:
                    pim.integrity_sync()
                seq += 1
                continue
            stop = hi if by_read else bounds[min(seq + span, n_seqs)]
            batch = self._plan_batch(packed[lo:stop], owner[lo:stop])
            if batch is None:
                # some partition would raise TableFullError mid-stream
                # and nothing has been applied yet: go read by read, and
                # replay a single read through the scalar path, so the
                # error fires at the exact arrival — with the exact
                # partial table state and ledger — the golden model
                # produces
                if not by_read:
                    by_read = True
                    continue
                self._replay_scalar(packed[lo:hi])
                if integrity is not None:
                    pim.integrity_sync()
                seq += 1
                continue
            reads = batch.pair_reads[batch.read_starts].tolist()
            if integrity is None:
                self._store_batch(batch)
                seq = reads[-1] + 1
                continue
            encoded = (
                self._encoded_rows(batch)
                if store.ecc_enabled
                else np.zeros(len(reads), dtype=np.int64)
            )
            # rows written before this call drain at the first checkpoint
            encoded[0] += store.drain_encoded_rows()
            priced = scheduler.price_segments(*batch.flush_args)
            last, closes = self._rot_cut(
                priced.with_column(
                    "ECC_ENC", encoded, *integrity.encode_cost(encoded)
                ),
                reads,
                n_seqs,
            )
            if last < len(reads) - 1:
                stop = bounds[reads[last] + 1]
                batch = self._plan(
                    packed[lo:stop], owner[lo:stop], batch.keys.head(stop - lo)
                )
                priced = priced.head(last + 1)
                encoded = encoded[: last + 1]
            # the closing read's rows drain in its sync, after the rot
            deferred = int(encoded[-1]) if closes else 0
            encoded[-1] -= deferred
            self._store_batch(
                batch,
                priced.with_column(
                    "ECC_ENC", encoded, *integrity.encode_cost(encoded)
                ),
            )
            # the batch's own tally of distinct rows: booked per read
            store.drain_encoded_rows()
            span = 2 * (reads[last] + 1 - seq)
            seq = reads[last] + 1
            if closes:
                store.defer_encoded_rows(deferred)
                pim.integrity_sync()

    def _rot_cut(
        self, priced: PricedSegments, reads: list, n_seqs: int
    ) -> "tuple[int, bool]":
        """Where a priced batch meets its first window-closing checkpoint.

        ``priced`` has one segment per read (sequence ``reads[i]``), its
        last column that read's ``ECC_ENC``.  A read's checkpoint comes
        before that cell; the bare checkpoint of a sequence without
        k-mers after it, after the cell.  Returns the last read to
        store and whether its own checkpoint closes the window (else a
        bare one does, or none in the batch does).  The comparison is
        the engine's own, on the ledger's own left-to-right sums.
        """
        integrity = self.pim.integrity
        elapsed = priced.elapsed(self.pim.stats.elapsed_ns())
        for i, (read, check, done, following) in enumerate(
            zip(
                reads,
                elapsed[:, -2].tolist(),
                elapsed[:, -1].tolist(),
                reads[1:] + [n_seqs],
            )
        ):
            if integrity.closes_window(check):
                return i, True
            if following > read + 1 and integrity.closes_window(done):
                return i, False
        return len(reads) - 1, False

    def _plan_batch(
        self, packed: np.ndarray, owner: np.ndarray
    ) -> "_Batch | None":
        """Plan a batch without touching the device: its slots, counter
        values and charges.  ``None`` when some partition would fill.

        A batch is a fixed number of device-wide NumPy calls however
        many partitions it touches, each over the batch alone: one
        grouping of the arrivals by key, one hash-table lookup for known
        keys and one packed bit-field gather of their counters, then
        :meth:`_plan`.
        """
        layout = self.layout
        keys = group(packed)
        parts = kmer_partition_array(keys.values, self.partitions)
        slot = self._index.lookup(keys.values)
        start = np.zeros(slot.size, dtype=np.int64)
        kn = np.flatnonzero(slot >= 0)
        if kn.size:
            sslot = self._store_slot
            kn_parts = parts[kn]
            # stored by the scalar path or restored: these exist
            self._resolve_slots(np.unique(kn_parts[sslot[kn_parts] < 0]))
            cpr = layout.counters_per_row
            start[kn] = self.pim.device.store.read_fields(
                sslot[kn_parts],
                layout.value_base + slot[kn] // cpr,
                (slot[kn] % cpr) * layout.counter_bits,
                layout.counter_bits,
            )
        return self._plan(packed, owner, _Keys(keys, parts, slot, start))

    def _plan(
        self, packed: np.ndarray, owner: np.ndarray, keys: _Keys
    ) -> "_Batch | None":
        """The rest of :meth:`_plan_batch`, given the batch's resolved
        keys: first-arrival slot assignment, counter evolution and the
        (read, partition) pair counts of one segmented charge.  Every
        array is sized by the batch or the partitions it touches."""
        ctrl = self.pim.controller
        layout = self.layout
        n = packed.size
        g = keys.groups
        inv = g.inverse
        first = g.first

        # the touched partitions, increasing, and each key's among them
        by_part = group(keys.parts)
        touched = by_part.values
        t_key = by_part.inverse
        n_touched = touched.size

        # new keys claim slots in first-arrival order per partition
        new_u = np.flatnonzero(keys.slot < 0)
        occ0 = self._occupied[touched]
        new_per_part = np.bincount(t_key[new_u], minlength=n_touched)
        if (occ0 + new_per_part > layout.kmer_rows).any():
            return None
        # partition-major, arrival-ordered: a key's first arrival is
        # unique, so this sort needs no stability
        nu = inv[np.sort(t_key[new_u] * n + first[new_u]) % n]
        nu_t = t_key[nu]
        seg_starts = np.cumsum(new_per_part) - new_per_part
        key_slot = keys.slot.copy()
        key_slot[nu] = occ0[nu_t] + (
            np.arange(nu.size, dtype=np.int64) - seg_starts[nu_t]
        )

        # per-arrival scan lengths: a miss at insertion slot s scanned
        # all s occupied rows; a hit at slot s stopped after s + 1 rows
        slots = key_slot[inv]
        is_miss = np.zeros(n, dtype=bool)
        is_miss[first[new_u]] = True
        scanned = np.where(is_miss, slots, slots + 1)

        # the (read, partition) pairs, read-major: the charging unit
        pairs = group(owner * n_touched + t_key[inv])
        pair_of = pairs.inverse
        pair_parts = touched[pairs.values % n_touched]
        pair_reads = pairs.values // n_touched

        # counter evolution: value(key) ends at min(start + arrivals,
        # max) (a new key's first arrival inserts a 1), incrementing
        # (1 DPU add + 1 MEM_WR) only below saturation and reading
        # (1 MEM_RD) on every hit
        cpr = layout.counters_per_row
        vrows = layout.value_base + key_slot // cpr
        vbits = (key_slot % cpr) * layout.counter_bits
        final_vals = np.minimum(keys.start + g.counts, layout.counter_max)

        # ---- charging: identical command counts per (read, partition)
        # pair, one gang schedule per read ----
        # a hit increments iff the value before it is below the
        # maximum: start + rank, rank counting the key's earlier
        # arrivals in this batch
        before = keys.start[inv] + g.rank()
        incs = ~is_miss & (before < layout.counter_max)
        n_pairs = pairs.values.size
        arr_p = np.bincount(pair_of, minlength=n_pairs)
        miss_p = np.bincount(pair_of[is_miss], minlength=n_pairs)
        scan_p = np.bincount(
            pair_of, weights=scanned.astype(np.float64), minlength=n_pairs
        ).astype(np.int64)
        inc_p = np.bincount(pair_of[incs], minlength=n_pairs)
        read_starts = np.flatnonzero(
            np.concatenate(([True], pair_reads[1:] != pair_reads[:-1]))
        )
        # under a detect policy each read charges one parity check per
        # scanned row, ahead of its schedule
        eng = ctrl._verifying()
        verify = (
            None if eng is None else np.add.reduceat(scan_p, read_starts)
        )
        # per arrival: temp insert + x1 staging; per miss: the insert
        # RowClone and its counter write; per hit: a counter read; per
        # increment: a DPU add and its write-back; per scanned row: AAP
        # copy + XNOR on the sub-array, AND-reduce on the MAT's DPU
        charges = [
            ("MEM_WR", arr_p + miss_p + inc_p),
            ("MEM_RD", arr_p - miss_p),
            ("AAP1", arr_p + miss_p + scan_p),
            ("AAP2", scan_p),
            ("DPU", scan_p + inc_p),
        ]
        return _Batch(
            keys=keys,
            packed=packed,
            slots=slots,
            scanned=scanned,
            pair_of=pair_of,
            key_slot=key_slot,
            vrows=vrows,
            vbits=vbits,
            final_vals=final_vals,
            nu=nu,
            touched=touched,
            new_per_part=new_per_part,
            seg_starts=seg_starts,
            last_arrival=np.maximum.reduceat(
                g.last[by_part.order], by_part.starts
            ),
            first_read=owner[
                np.minimum.reduceat(first[by_part.order], by_part.starts)
            ],
            pair_reads=pair_reads,
            read_starts=read_starts,
            arr_p=arr_p,
            miss_p=miss_p,
            flush_args=(self._keys, pair_parts, pair_reads, charges, verify),
        )

    def _store_batch(
        self, b: "_Batch", priced: "PricedSegments | None" = None
    ) -> None:
        """Apply a planned batch: the device end state, the host index
        and the ledger stream (``priced``, else the batch's own charges).

        One packed bit-field scatter writes every counter, one row-word
        conversion covers every new key and every partition's last
        query, and one ``(slot, row)`` scatter writes the k-mer and
        compute rows.
        """
        ctrl = self.pim.controller
        layout = self.layout
        touched = b.touched
        # resolve the store slots not cached yet in first-use order (the
        # read that first touches a partition, then the partition: a
        # claim on first touch fixes the store's slot numbering), BEFORE
        # taking any packed view: store growth reallocates the tensor
        sslot = self._store_slot
        unresolved = np.flatnonzero(sslot[touched] < 0)
        if unresolved.size:
            n_touched = touched.size
            self._resolve_slots(
                touched[
                    np.sort(b.first_read[unresolved] * n_touched + unresolved)
                    % n_touched
                ]
            )
        store = self.pim.device.store
        uniq, parts = b.keys.groups.values, b.keys.parts
        store.write_fields(
            sslot[parts], b.vrows, b.vbits, layout.counter_bits, b.final_vals
        )
        # one scatter writes the new k-mer rows and leaves every
        # touched sub-array's compute rows as its last arriving k-mer's
        # scan would
        nu = b.nu
        words = packed_to_row_words(
            np.concatenate((uniq[nu], b.packed[b.last_arrival])),
            self.k,
            self.pim.row_bits,
        )
        new_words, q_words = words[: nu.size], words[nu.size :]
        last_scanned = b.scanned[b.last_arrival]
        read_any = last_scanned > 0
        read_t = np.flatnonzero(read_any)
        read_parts = touched[read_t]
        last_slot = last_scanned[read_t] - 1
        last_words = store.tensor[
            sslot[read_parts], layout.kmer_row(0) + last_slot
        ]
        # the last scanned row may be one this batch inserts
        occ0 = self._occupied[read_parts]
        fresh = np.flatnonzero(last_slot >= occ0)
        last_words[fresh] = new_words[
            b.seg_starts[read_t[fresh]] + last_slot[fresh] - occ0[fresh]
        ]
        end_slots, end_rows, end_words = scan_end_rows(
            sslot[touched],
            layout.temp_row(0),
            self._x_rows,
            q_words,
            read_any,
            last_words,
            store.col_mask_words,
        )
        store.scatter_rows(
            np.concatenate((sslot[parts[nu]], end_slots)),
            np.concatenate((layout.kmer_row(0) + b.key_slot[nu], end_rows)),
            np.concatenate((new_words, end_words)),
        )
        if nu.size:
            self._occupied[touched] += b.new_per_part
            self._index.insert(uniq[nu], b.key_slot[nu])
        if priced is None:
            ctrl.scheduler.flush_segments(*b.flush_args)
        else:
            ctrl.scheduler.record(priced)

    def _encoded_rows(self, b: "_Batch") -> np.ndarray:
        """Rows each read of a batch re-encodes, as a batch of that read
        alone tallies them: its distinct counter rows, its new k-mer
        rows and, per touched partition, temp and x1, plus x2 and x3
        after a scan that read a row."""
        cpr = self.layout.counters_per_row
        span = self.layout.kmer_rows // cpr + 1
        counter_rows = group(b.pair_of * span + b.slots // cpr).values
        rows = np.bincount(counter_rows // span, minlength=b.arr_p.size)
        # a pair's last scan read no row only if it is the pair's one
        # arrival and the first key its partition ever stored (a miss
        # at slot 0; every later arrival there scans that row)
        first_key = np.zeros(b.arr_p.size, dtype=bool)
        first_key[b.pair_of[b.scanned == 0]] = True
        rows += b.miss_p + 4 - 2 * (first_key & (b.arr_p == 1))
        return np.add.reduceat(rows, b.read_starts)

    # ----- table updates ---------------------------------------------------------------

    def _insert_new(self, index: int, temp: RowAddress, packed: int) -> None:
        """MEM_insert(k_mer, 1): claim partition ``index``'s next free slot."""
        layout = self.layout
        slot = int(self._occupied[index])
        if slot >= layout.kmer_rows:
            raise TableFullError(
                f"sub-array {self._keys[index]} k-mer region full "
                f"({layout.kmer_rows} slots)"
            )
        ctrl = self.pim.controller
        ctrl.copy(temp, self._addr(index, layout.kmer_row(slot)))
        self._write_counter(index, slot, 1)
        self._occupied[index] += 1
        if not self._index.add(packed, slot):
            # a faulted scan missed the stored copy
            self._copy_keys = np.append(self._copy_keys, np.uint64(packed))
            self._copy_slots = np.append(self._copy_slots, slot)

    def _increment(self, index: int, slot: int) -> None:
        """New_freq = PIM_Add(k_mer, 1); MEM_insert(k_mer, New_freq).

        Counter fields are 8-bit packed (32 per value row), so the
        update is the DPU's non-bulk read-modify-write path.
        """
        current = self._read_counter(index, slot)
        if current >= self.layout.counter_max:
            return  # counters saturate, as the hardware's do
        new_value = self.pim.controller.dpu_scalar_add(
            self._keys[index], current, 1, bits=self.layout.counter_bits
        )
        self._write_counter(index, slot, new_value)

    # ----- counter field access -----------------------------------------------------------

    def _read_counter(self, index: int, slot: int) -> int:
        bits = self.layout.counter_bits
        row, bit = self.layout.value_position(slot)
        data = self.pim.controller.read_row(self._addr(index, row))
        return int(data[bit : bit + bits] @ (1 << np.arange(bits)))

    def _write_counter(self, index: int, slot: int, value: int) -> None:
        layout = self.layout
        if not 0 <= value <= layout.counter_max:
            raise ValueError(f"counter value {value} out of range")
        row, bit = layout.value_position(slot)
        addr = self._addr(index, row)
        sub = self.pim.device.subarray_at(self._keys[index])
        data = sub.read_row(row)  # host shadow read for the RMW merge
        bits = (value >> np.arange(layout.counter_bits)) & 1
        data[bit : bit + layout.counter_bits] = bits.astype(np.uint8)
        self.pim.controller.write_row(addr, data)

    # ----- scrubbing -------------------------------------------------------------------------

    def scrub(self) -> tuple[int, int]:
        """Verify every resident k-mer row; repair the ones that drifted.

        The table lives in the arrays for the whole assembly run, so a
        scrub pass between pipeline stages bounds how long a corrupted
        slot (a faulted insert RowClone, a retention upset) can poison
        queries.  A pass is one vector compare
        (:meth:`~repro.core.controller.Controller.scrub_rows`) of every
        occupied row against the host shadow, packed in one call, and
        is accounted as one parity check (``VRF`` cycles) per row in
        partition/slot order.  A mismatching row is rewritten from the
        host shadow through the GRB (one ``MEM_WR``) right after its
        check when the active policy retries, and recorded as
        uncorrected otherwise.

        Returns:
            ``(checked, repaired)`` row counts.
        """
        ctrl = self.pim.controller
        engine = ctrl.resilience
        keys, parts, slots = self._slot_order()
        rows = self.layout.kmer_row(0) + slots
        expected = packed_to_row_bits(keys, self.k, self.pim.row_bits)
        repaired = 0

        def repair(i: int) -> None:
            nonlocal repaired
            key = self._keys[parts[i]]
            if engine is not None:
                engine.note_detected()
            if engine is None or engine.policy.retry:
                ctrl.write_row(RowAddress(*key, row=int(rows[i])), expected[i])
                repaired += 1
                if engine is not None:
                    engine.note_corrected()
            else:
                engine.note_uncorrected(key, int(rows[i]))

        # Scrub repairs legitimately MEM_WR straight into the k-mer
        # region; the marks tell the trace verifier to suspend its
        # table-region write rule for this window.
        ctrl.mark("scrub:begin")
        ctrl.scrub_rows(self._keys, parts, rows, pack_rows(expected), repair)
        ctrl.mark("scrub:end")
        checked = int(rows.size)
        if engine is not None:
            engine.note_scrub(checked, repaired)
        return checked, repaired

    # ----- readback --------------------------------------------------------------------------

    @property
    def kmers(self) -> np.ndarray:
        """The stored k-mers, strictly increasing (no device access)."""
        return np.sort(self._index.items()[0])

    def counts(self) -> "tuple[np.ndarray, np.ndarray]":
        """Read the full table back as ``(kmers, counts)``.

        ``kmers`` is :attr:`kmers`; ``counts`` their frequencies, in the
        same order (a k-mer stored twice reads its last copy).  One
        :meth:`Controller.read_fields` call reads every counter and
        accounts as one host row read per stored row, in
        partition/slot order.
        """
        keys, parts, slots = self._slot_order()
        layout = self.layout
        values = self.pim.controller.read_fields(
            self._keys,
            parts,
            layout.value_base + slots // layout.counters_per_row,
            (slots % layout.counters_per_row) * layout.counter_bits,
            layout.counter_bits,
        )
        by_key = group(keys)
        return by_key.values, values[by_key.last]

    def stored_kmer(self, partition: int, slot: int) -> DnaSequence:
        """Decode a stored k-mer row straight from memory (for tests)."""
        row = self.pim.controller.read_row(
            self._addr(partition, self.layout.kmer_row(slot))
        )
        return DnaSequence.from_bits(row[: self._valid_bits])

    def __len__(self) -> int:
        return int(self._occupied.sum())

    @property
    def occupancy(self) -> list[int]:
        return self._occupied.tolist()

    # ----- checkpointing ----------------------------------------------------------

    def state_dict(self) -> dict:
        """Host-side table metadata for the job journal.

        The in-memory row/counter *bits* travel in the platform
        snapshot (:meth:`repro.core.platform.PimAssembler.state_dict`);
        this records the partition keys and the stored k-mers in
        partition/slot order as base64 words — the shadow that
        re-attaches a counter to restored memory, including any rows a
        fault left corrupt, which a rebuild from the shadow alone would
        silently repair.
        """
        return {
            "k": self.k,
            "keys": [list(key) for key in self._keys],
            "kmers": encode_words(self._slot_order()[0]),
        }

    @classmethod
    def from_state(
        cls, pim: PimAssembler, state: dict, engine: str = "scalar"
    ) -> "PimKmerCounter":
        """Re-attach a counter to a platform restored from a snapshot.

        ``engine`` need not match the snapshotting run's: the table
        protocol is engine-agnostic.  Occupancy and slots follow from
        the k-mers' partitions; k-mers out of partition order, or more
        than a partition holds, raise :class:`~repro.errors.JournalError`.
        """
        require_keys(state, ("k", "keys", "kmers"), "counter state")
        counter = cls(
            pim,
            int(state["k"]),
            subarray_keys=[tuple(key) for key in state["keys"]],
            engine=engine,
        )
        kmers = decode_words(state["kmers"], "<u8", "counter k-mers")
        parts = kmer_partition_array(kmers, counter.partitions)
        if (parts[1:] < parts[:-1]).any():
            raise JournalError("counter k-mers are not in partition order")
        occupied = np.bincount(parts, minlength=counter.partitions)
        if (occupied > counter.layout.kmer_rows).any():
            raise JournalError("counter k-mers overflow a partition's rows")
        counter._occupied[:] = occupied
        slots = np.arange(kmers.size) - np.repeat(
            np.cumsum(occupied) - occupied, occupied
        )
        # the first copy of a k-mer holds its lowest slot
        by_key = group(kmers.astype(np.uint64))
        counter._index.insert(by_key.values, slots[by_key.first])
        copy = np.ones(kmers.size, dtype=bool)
        copy[by_key.first] = False
        counter._copy_keys = kmers[copy].astype(np.uint64)
        counter._copy_slots = slots[copy]
        return counter
