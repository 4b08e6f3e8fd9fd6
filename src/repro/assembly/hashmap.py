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
from typing import Iterable, Sequence

import numpy as np

from repro.core.bitplane import scan_end_rows
from repro.core.isa import RowAddress
from repro.core.platform import PimAssembler
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
    """

    def __init__(
        self,
        pim: PimAssembler,
        k: int,
        subarray_keys: Sequence[tuple[int, int, int]] | None = None,
        engine: str = "scalar",
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
        """
        if self.engine != "bulk":
            for sequence in sequences:
                for kmer in iter_kmers(sequence, self.k):
                    self.add_kmer(kmer)
            return
        packed, owner = packed_kmers_batch(sequences, self.k)
        if not packed.size:
            return
        # one cancellation point per sequence that has k-mers
        for _ in range(int(np.count_nonzero(np.diff(owner))) + 1):
            checkpoint()
        self._add_packed_bulk(packed, owner)

    def add_reads(self, reads: Iterable[Read]) -> None:
        self.add_sequences([read.sequence for read in reads])

    # ----- the bulk path ---------------------------------------------------------

    def _replay_scalar(self, packed: np.ndarray) -> None:
        """Run a batch k-mer by k-mer through the scalar golden path."""
        for value in packed.tolist():
            self._add_packed_scalar(int(value))

    def _merge_index(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Insert sorted keys into the index.

        A key already present (a scalar insert after a faulted scan)
        lands after its copies: they hold lower slots of the same
        partition, and the first copy is the one a scan matches.
        """
        pos = np.searchsorted(self._idx_keys, keys, side="right")
        self._idx_keys = np.insert(self._idx_keys, pos, keys)
        self._idx_slot = np.insert(self._idx_slot, pos, slots)

    def _add_packed_bulk(self, packed: np.ndarray, owner: np.ndarray) -> None:
        """Batch-insert packed k-mers of several reads across ALL sub-arrays.

        ``owner`` (non-decreasing) names each arrival's read.  The
        scalar loop's observable behaviour is reproduced exactly: slot
        assignment follows first arrival, scan lengths follow the
        stop-at-first-match protocol, counters saturate per hit, and
        the ledger receives the identical command counts — charged as
        one gang schedule per read instead of op by op.

        A batch is a fixed number of device-wide NumPy calls however
        many partitions it touches: one ``np.unique`` over the batch,
        one sorted-index lookup for known keys, one lexsort for
        first-arrival slot assignment, packed bit-field gather/scatter
        for every counter, one row-bits pack for every new key and
        every partition's last query, one ``(slot, row)`` scatter for
        the k-mer and compute rows, and one segmented charge over the
        (read, partition) pairs.
        """
        ctrl = self.pim.controller
        faults = ctrl.faults
        if (
            faults is not None
            and faults.enabled
            and (faults.compute2_rate > 0.0 or faults.copy_rate > 0.0)
        ):
            # live scan/copy fault rates: the per-op RNG draw order is
            # part of the contract, so replay the exact scalar path
            self._replay_scalar(packed)
            return
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
            # some partition would raise TableFullError mid-stream and
            # nothing has been applied yet: re-run a batch read by read,
            # and replay a single read through the scalar path, so the
            # error fires at the exact arrival — with the exact partial
            # table state and ledger — the golden model produces
            if owner[0] != owner[-1]:
                cuts = np.flatnonzero(np.diff(owner)) + 1
                for part, part_owner in zip(
                    np.split(packed, cuts), np.split(owner, cuts)
                ):
                    self._add_packed_bulk(part, part_owner)
                return
            self._replay_scalar(packed)
            return
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

        # resolve each touched partition's store slot on first touch, in
        # per-read touch order (it fixes the store's slot numbering),
        # BEFORE taking any packed view: store growth reallocates the
        # tensor
        touched = np.flatnonzero(np.bincount(kparts, minlength=n_parts))
        sslot = self._store_slot
        unresolved = pair_parts[sslot[pair_parts] < 0]
        if unresolved.size:
            firsts = np.sort(np.unique(unresolved, return_index=True)[1])
            for p in unresolved[firsts].tolist():
                sslot[p] = self.pim.device.subarray_at(self._keys[p]).slot
        store = self.pim.device.store

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
            start_vals[kn] = store.read_fields(
                sslot[uparts[kn]], vrows[kn], vbits[kn], cbits
            )
        hits_per_key = occurrences - (~known).astype(np.int64)
        final_vals = np.minimum(start_vals + hits_per_key, layout.counter_max)

        # ---- functional end state -------------------------------------
        if uniq.size:
            store.write_fields(
                sslot[uparts], vrows, vbits, cbits, final_vals
            )
        # one scatter writes the new k-mer rows and leaves every
        # touched sub-array's compute rows as its last arriving k-mer's
        # scan would
        last_arrival = np.full(n_parts, -1, dtype=np.int64)
        np.maximum.at(
            last_arrival, kparts, np.arange(packed.size, dtype=np.int64)
        )
        last_arrival = last_arrival[touched]
        words = pack_rows(
            packed_to_row_bits(
                np.concatenate((uniq[nu], packed[last_arrival])),
                self.k,
                self.pim.row_bits,
            )
        )
        new_words, q_words = words[: nu.size], words[nu.size :]
        last_scanned = scanned[last_arrival]
        read_any = last_scanned > 0
        read_parts = touched[read_any]
        last_slot = last_scanned[read_any] - 1
        last_words = store.tensor[
            sslot[read_parts], layout.kmer_row(0) + last_slot
        ]
        # the last scanned row may be one this batch inserts
        fresh = np.flatnonzero(last_slot >= occ0[read_parts])
        fresh_parts = read_parts[fresh]
        last_words[fresh] = new_words[
            seg_starts[fresh_parts] + last_slot[fresh] - occ0[fresh_parts]
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
            np.concatenate((sslot[nu_parts], end_slots)),
            np.concatenate((layout.kmer_row(0) + uniq_slot[nu], end_rows)),
            np.concatenate((new_words, end_words)),
        )
        if nu.size:
            self._occupied += new_per_part
            self._merge_index(uniq[new_u], uniq_slot[new_u])

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
        # under a detect policy each read charges one parity check per
        # scanned row, ahead of its schedule
        eng = ctrl._verifying()
        verify = None
        if eng is not None:
            read_starts = np.flatnonzero(
                np.concatenate(([True], pair_reads[1:] != pair_reads[:-1]))
            )
            verify = np.add.reduceat(scan_p, read_starts)

        # per arrival: temp insert + x1 staging; per miss: the insert
        # RowClone and its counter write; per hit: a counter read; per
        # increment: a DPU add and its write-back; per scanned row: AAP
        # copy + XNOR on the sub-array, AND-reduce on the MAT's DPU
        ctrl.scheduler.flush_segments(
            self._keys,
            pair_parts,
            pair_reads,
            [
                ("MEM_WR", arr_p + miss_p + inc_p),
                ("MEM_RD", arr_p - miss_p),
                ("AAP1", arr_p + miss_p + scan_p),
                ("AAP2", scan_p),
                ("DPU", scan_p + inc_p),
            ],
            verify,
        )
        if verify is not None:
            ctrl._note_verify(eng, verify)

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
