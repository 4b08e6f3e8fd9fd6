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
    unpack_kmer,
)
from repro.genome.reads import Read
from repro.genome.sequence import DnaSequence
from repro.mapping.hashing import kmer_partition, kmer_partition_array
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
class _Batch:
    """A bulk batch planned by :meth:`PimKmerCounter._plan_batch`.

    Per arrival: ``slots`` (k-mer slot), ``kparts`` (partition),
    ``scanned`` (rows its scan read) and ``pair_of`` (its (read,
    partition) pair).  Per distinct key (``uniq``): partition, slot,
    counter row, bit offset and final value; ``new_u`` are the new keys
    and ``nu`` the same partition-major.  Per pair: partition, read,
    arrivals and misses; ``read_starts`` opens each read's pairs.
    """

    packed: np.ndarray
    uniq: np.ndarray
    uparts: np.ndarray
    uniq_slot: np.ndarray
    new_u: np.ndarray
    nu: np.ndarray
    new_per_part: np.ndarray
    seg_starts: np.ndarray
    slots: np.ndarray
    kparts: np.ndarray
    scanned: np.ndarray
    pair_of: np.ndarray
    pair_parts: np.ndarray
    pair_reads: np.ndarray
    read_starts: np.ndarray
    arr_p: np.ndarray
    miss_p: np.ndarray
    vrows: np.ndarray
    vbits: np.ndarray
    final_vals: np.ndarray
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
        # the host shadow of the stored k-mers: a sorted key index over
        # all partitions with each key's slot.  The partition is a pure
        # function of the key, so this one array resolves a key to its
        # slot (the bulk path's lookup) and, lexsorted by (partition,
        # slot), gives the table's row order (scrub, readback, journal).
        # Keys are strictly increasing unless a faulted scan missed a
        # match and stored a k-mer twice; the copies sit in slot order.
        self._idx_keys = np.empty(0, dtype=np.uint64)
        self._idx_slot = np.empty(0, dtype=np.int64)

    # ----- addressing helpers ---------------------------------------------------

    def _addr(self, index: int, row: int) -> RowAddress:
        return RowAddress(*self._keys[index], row=row)

    @property
    def partitions(self) -> int:
        return len(self._keys)

    def _slot_order(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Index positions in partition/slot order, with their
        partitions and slots."""
        parts = kmer_partition_array(self._idx_keys, self.partitions)
        order = np.lexsort((self._idx_slot, parts))
        return order, parts[order], self._idx_slot[order]

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

    def _merge_index(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Insert sorted keys into the index.

        A key already present (a scalar insert after a faulted scan)
        lands after its copies: they hold lower slots of the same
        partition, and the first copy is the one a scan matches.
        """
        pos = np.searchsorted(self._idx_keys, keys, side="right")
        self._idx_keys = np.insert(self._idx_keys, pos, keys)
        self._idx_slot = np.insert(self._idx_slot, pos, slots)

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
        stored as one batch (planned again when reads follow it), in
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
                batch = self._plan_batch(packed[lo:stop], owner[lo:stop])
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
            integrity.note_encoded(int(encoded.sum()))
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
        many partitions it touches: one ``np.unique`` over the batch,
        one sorted-index lookup for known keys, one lexsort for
        first-arrival slot assignment, packed bit-field gather for
        every known counter, and the (read, partition) pair counts of
        one segmented charge.
        """
        ctrl = self.pim.controller
        n_parts = self.partitions
        layout = self.layout
        uniq, first_idx, inv = np.unique(
            packed, return_index=True, return_inverse=True
        )
        uparts = kmer_partition_array(uniq, n_parts).astype(np.int64)

        # resolve known keys against the global sorted index
        if self._idx_keys.size:
            pos = np.minimum(
                np.searchsorted(self._idx_keys, uniq),
                self._idx_keys.size - 1,
            )
            known = self._idx_keys[pos] == uniq
            uniq_slot = np.where(known, self._idx_slot[pos], -1)
        else:
            known = np.zeros(uniq.size, dtype=bool)
            uniq_slot = np.full(uniq.size, -1, dtype=np.int64)

        # new keys claim slots in first-arrival order per partition
        new_u = np.flatnonzero(~known)
        occ0 = self._occupied
        new_per_part = np.bincount(uparts[new_u], minlength=n_parts)
        if (occ0 + new_per_part > layout.kmer_rows).any():
            return None
        order = np.lexsort((first_idx[new_u], uparts[new_u]))
        nu = new_u[order]  # partition-major, arrival-ordered
        nu_parts = uparts[nu]
        seg_starts = np.concatenate(([0], np.cumsum(new_per_part)[:-1]))
        uniq_slot[nu] = occ0[nu_parts] + (
            np.arange(nu.size, dtype=np.int64) - seg_starts[nu_parts]
        )

        # per-arrival scan lengths: a miss at insertion slot s scanned
        # all s occupied rows; a hit at slot s stopped after s + 1 rows
        slots = uniq_slot[inv]
        kparts = uparts[inv]
        is_miss = np.zeros(packed.size, dtype=bool)
        is_miss[first_idx[new_u]] = True
        scanned = np.where(is_miss, slots, slots + 1)

        # the (read, partition) pairs, read-major: the charging unit
        pairs, pair_of = np.unique(
            owner * n_parts + kparts, return_inverse=True
        )
        pair_parts = pairs % n_parts

        # counter evolution: value(key) ends at min(start + hits, max),
        # incrementing (1 DPU add + 1 MEM_WR) only below saturation and
        # reading (1 MEM_RD) on every hit
        cpr = layout.counters_per_row
        cbits = layout.counter_bits
        vrows = layout.value_base + uniq_slot // cpr
        vbits = (uniq_slot % cpr) * cbits
        occurrences = np.bincount(inv, minlength=uniq.size).astype(np.int64)
        start_vals = np.ones(uniq.size, dtype=np.int64)  # inserts write 1
        kn = np.flatnonzero(known)
        if kn.size:
            sslot = self._store_slot
            kn_parts = uparts[kn]
            # stored by the scalar path or restored: these exist
            self._resolve_slots(np.unique(kn_parts[sslot[kn_parts] < 0]))
            start_vals[kn] = self.pim.device.store.read_fields(
                sslot[kn_parts], vrows[kn], vbits[kn], cbits
            )
        hits_per_key = occurrences - (~known).astype(np.int64)
        final_vals = np.minimum(start_vals + hits_per_key, layout.counter_max)

        # ---- charging: identical command counts per (read, partition)
        # pair, one gang schedule per read ----
        # a hit increments iff the value before it is below the
        # maximum: start + rank for a known key, rank for a new one
        # (its first arrival inserted a 1), rank counting the key's
        # earlier arrivals in this batch
        by_key = np.argsort(inv, kind="stable")
        rank = np.empty(packed.size, dtype=np.int64)
        rank[by_key] = np.arange(packed.size) - np.repeat(
            np.cumsum(occurrences) - occurrences, occurrences
        )
        before = np.where(known[inv], start_vals[inv] + rank, rank)
        incs = ~is_miss & (before < layout.counter_max)
        n_pairs = pairs.size
        arr_p = np.bincount(pair_of, minlength=n_pairs)
        miss_p = np.bincount(pair_of[is_miss], minlength=n_pairs)
        scan_p = np.bincount(
            pair_of, weights=scanned.astype(np.float64), minlength=n_pairs
        ).astype(np.int64)
        inc_p = np.bincount(pair_of[incs], minlength=n_pairs)
        pair_reads = pairs // n_parts
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
            packed=packed,
            uniq=uniq,
            uparts=uparts,
            uniq_slot=uniq_slot,
            new_u=new_u,
            nu=nu,
            new_per_part=new_per_part,
            seg_starts=seg_starts,
            slots=slots,
            kparts=kparts,
            scanned=scanned,
            pair_of=pair_of,
            pair_parts=pair_parts,
            pair_reads=pair_reads,
            read_starts=read_starts,
            arr_p=arr_p,
            miss_p=miss_p,
            vrows=vrows,
            vbits=vbits,
            final_vals=final_vals,
            flush_args=(self._keys, pair_parts, pair_reads, charges, verify),
        )

    def _store_batch(
        self, b: "_Batch", priced: "PricedSegments | None" = None
    ) -> None:
        """Apply a planned batch: the device end state, the host index
        and the ledger stream (``priced``, else the batch's own charges).

        One packed bit-field scatter writes every counter, one row-bits
        pack covers every new key and every partition's last query, and
        one ``(slot, row)`` scatter writes the k-mer and compute rows.
        """
        ctrl = self.pim.controller
        n_parts = self.partitions
        layout = self.layout
        # resolve each touched partition's store slot on first touch, in
        # per-read touch order (it fixes the store's slot numbering),
        # BEFORE taking any packed view: store growth reallocates the
        # tensor
        touched = np.flatnonzero(np.bincount(b.kparts, minlength=n_parts))
        sslot = self._store_slot
        unresolved = b.pair_parts[sslot[b.pair_parts] < 0]
        if unresolved.size:
            firsts = np.sort(np.unique(unresolved, return_index=True)[1])
            self._resolve_slots(unresolved[firsts])
        store = self.pim.device.store
        store.write_fields(
            sslot[b.uparts], b.vrows, b.vbits, layout.counter_bits, b.final_vals
        )
        # one scatter writes the new k-mer rows and leaves every
        # touched sub-array's compute rows as its last arriving k-mer's
        # scan would
        last_arrival = np.full(n_parts, -1, dtype=np.int64)
        np.maximum.at(
            last_arrival, b.kparts, np.arange(b.packed.size, dtype=np.int64)
        )
        last_arrival = last_arrival[touched]
        nu = b.nu
        words = pack_rows(
            packed_to_row_bits(
                np.concatenate((b.uniq[nu], b.packed[last_arrival])),
                self.k,
                self.pim.row_bits,
            )
        )
        new_words, q_words = words[: nu.size], words[nu.size :]
        last_scanned = b.scanned[last_arrival]
        read_any = last_scanned > 0
        read_parts = touched[read_any]
        last_slot = last_scanned[read_any] - 1
        last_words = store.tensor[
            sslot[read_parts], layout.kmer_row(0) + last_slot
        ]
        # the last scanned row may be one this batch inserts
        occ0 = self._occupied
        fresh = np.flatnonzero(last_slot >= occ0[read_parts])
        fresh_parts = read_parts[fresh]
        last_words[fresh] = new_words[
            b.seg_starts[fresh_parts] + last_slot[fresh] - occ0[fresh_parts]
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
            np.concatenate((sslot[b.uparts[nu]], end_slots)),
            np.concatenate((layout.kmer_row(0) + b.uniq_slot[nu], end_rows)),
            np.concatenate((new_words, end_words)),
        )
        if nu.size:
            self._occupied += b.new_per_part
            self._merge_index(b.uniq[b.new_u], b.uniq_slot[b.new_u])
        if priced is None:
            ctrl.scheduler.flush_segments(*b.flush_args)
        else:
            ctrl.scheduler.record(priced)
        verify = b.flush_args[-1]
        if verify is not None:
            ctrl._note_verify(ctrl._verifying(), verify)

    def _encoded_rows(self, b: "_Batch") -> np.ndarray:
        """Rows each read of a batch re-encodes, as a batch of that read
        alone tallies them: its distinct counter rows, its new k-mer
        rows and, per touched partition, temp and x1, plus x2 and x3
        after a scan that read a row."""
        cpr = self.layout.counters_per_row
        span = self.layout.kmer_rows // cpr + 1
        counter_rows = np.unique(b.pair_of * span + b.slots // cpr)
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
        self._merge_index(np.uint64(packed), slot)

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
        order, parts, slots = self._slot_order()
        rows = self.layout.kmer_row(0) + slots
        expected = packed_to_row_bits(
            self._idx_keys[order], self.k, self.pim.row_bits
        )
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
        # one repair stream: table-scrub repairs feed the integrity
        # counters too, so `inspect` and the ECC metrics agree
        integrity = self.pim.integrity
        if integrity is not None:
            integrity.note_table_scrub(checked, repaired)
        return checked, repaired

    # ----- readback --------------------------------------------------------------------------

    def _distinct(self) -> np.ndarray:
        """Mask over the index keeping each stored k-mer once: the last
        (highest-slot) copy of a k-mer a faulted scan stored twice."""
        last = np.ones(self._idx_keys.size, dtype=bool)
        last[:-1] = self._idx_keys[1:] != self._idx_keys[:-1]
        return last

    @property
    def kmers(self) -> np.ndarray:
        """The stored k-mers, strictly increasing (no device access)."""
        return self._idx_keys[self._distinct()]

    def counts(self) -> "tuple[np.ndarray, np.ndarray]":
        """Read the full table back as ``(kmers, counts)``.

        ``kmers`` is :attr:`kmers`; ``counts`` their frequencies, in the
        same order.  One :meth:`Controller.read_fields` call reads every
        counter and accounts as one host row read per stored k-mer, in
        partition/slot order.
        """
        order, parts, slots = self._slot_order()
        layout = self.layout
        values = np.empty(order.size, dtype=np.int64)
        values[order] = self.pim.controller.read_fields(
            self._keys,
            parts,
            layout.value_base + slots // layout.counters_per_row,
            (slots % layout.counters_per_row) * layout.counter_bits,
            layout.counter_bits,
        )
        last = self._distinct()
        return self._idx_keys[last], values[last]

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
        order = self._slot_order()[0]
        return {
            "k": self.k,
            "keys": [list(key) for key in self._keys],
            "kmers": encode_words(self._idx_keys[order]),
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
        order = np.argsort(kmers, kind="stable")
        counter._idx_keys = kmers[order].astype(np.uint64)
        counter._idx_slot = slots[order]
        return counter
