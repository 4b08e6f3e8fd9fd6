"""PIM-Assembler's memory controller (Ctrl).

The controller is the single component that *issues commands*: it
executes ISA instructions against device state (functional view) and
charges their latency/energy to the :class:`~repro.core.stats.StatsLedger`
(timed view).  Higher layers — the platform facade and the assembly
mapping — only ever talk to the controller, exactly as software talks to
the real chip through the three AAP instruction types.

Gang execution
==============

PIM-Assembler's throughput comes from every (bank, MAT) pair executing
the same command on its own sub-array simultaneously.  The controller
models this with *gangs*: a list of same-shape instructions executed in
one time slot.  Wall-clock time is charged once, energy once per member.
Ganged operations run through the same fault-injection path as their
single-op counterparts, so an attached
:class:`~repro.core.faults.FaultModel` perturbs them identically.

Addition protocol
=================

Per-bit ripple addition is the 2-cycle pair the paper describes:

1. **Sum cycle** — two-row activation of ``a_i``/``b_i``; the add-on XOR
   gate combines their XOR2 with the D-latch contents (the carry left by
   the *previous* bit's TRA), producing ``sum_i = a_i ^ b_i ^ c_{i-1}``.
2. **Carry cycle** — TRA over ``a_i``, ``b_i`` and the carry row
   (holding ``c_{i-1}``), producing ``c_i = maj(a_i, b_i, c_{i-1})``,
   captured both in the carry row and the latch.

Hence an m-bit add costs exactly ``2 * m`` row cycles — the figure the
paper quotes for the traversal-stage degree computation (Fig. 8).  The
3:2 carry-save compression used to reduce many 1-bit rows costs one
extra latch-load cycle (3 cycles per compression); the steady-state
2-cycle claim is the per-bit pair above.

Verified execution
==================

With a :class:`~repro.core.resilience.ResilienceEngine` attached
(``controller.resilience``), every compute-class operation (two-row
activation, TRA, sum cycle — the mechanisms Table I stresses) gains a
verify step: the result's parity is recomputed through the add-on XOR
path and reduced on the DPU, charged as ``VRF_AAP``/``VRF_DPU``.  A
detected mismatch re-executes the operation up to ``max_retries``
times with exponential operand re-staging (each retry at a derated
effective fault rate); an operation that stays corrupt is an
*uncorrectable* event — recorded, optionally raised, and under the
remap policy escalated to weak-row marking and sub-array quarantine.
RowClone transfers are full-swing and are *not* per-op verified;
resident tables built from them are covered by the pipeline's
between-stage scrub instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.core.device import Device
from repro.core.dpu import Dpu
from repro.core.energy import EnergyParameters, DEFAULT_ENERGY
from repro.core.isa import ISA, AapCompute2, AapCompute3, AapCopy, RowAddress, SAOp
from repro.core.faults import FaultModel
from repro.core.resilience import ResilienceEngine
from repro.core.scheduler import BatchedAapScheduler
from repro.core.stats import StatsLedger
from repro.core.storage import popcount_words, width_mask
from repro.core.timing import TimingParameters, DEFAULT_TIMING
from repro.core.trace import CommandTrace
from repro.errors import UncorrectableFaultError
from repro.observability.spans import span


@dataclass
class Controller:
    """Executes AAP command streams against a :class:`Device`."""

    device: Device
    ledger: StatsLedger = field(default_factory=StatsLedger)
    timing: TimingParameters = DEFAULT_TIMING
    energy: EnergyParameters = DEFAULT_ENERGY
    #: optional process-variation fault injection (see repro.core.faults)
    faults: FaultModel | None = None
    #: optional detect/correct/degrade engine (see repro.core.resilience)
    resilience: ResilienceEngine | None = None

    def __post_init__(self) -> None:
        self._trace: CommandTrace | None = None
        #: the DPU's reduce/add logic; it holds no state, so one unit
        #: serves every MAT (the scheduler times each MAT's DPU apart)
        self.dpu = Dpu(width=self.device.geometry.bank.mat.subarray.cols)
        #: the one gang scheduler every bulk kernel charges through
        self.scheduler = BatchedAapScheduler(
            self.ledger, timing=self.timing, energy=self.energy
        )

    def _apply_faults(
        self, sub, des_row: int, result, mechanism: str
    ):
        """Corrupt an in-memory op's output per the fault model."""
        if self.faults is None or not self.faults.enabled:
            return result
        corrupted = self.faults.corrupt(result, mechanism)
        if corrupted is not result:
            sub.write_row(des_row, corrupted)
        return corrupted

    def _verifying(self) -> ResilienceEngine | None:
        """The attached engine, when its policy asks for detection."""
        eng = self.resilience
        return eng if eng is not None and eng.policy.detect else None

    def _charge_verify(self, eng: ResilienceEngine | None, count: int = 1) -> None:
        """Charge ``count`` parity checks (extra AAP + DPU cycles)."""
        (aap, n_aap, t_aap, e_aap), (dpu, n_dpu, t_dpu, e_dpu) = (
            self.scheduler.verify
        )
        self.ledger.record(
            aap,
            time_ns=count * t_aap,
            energy_nj=count * e_aap,
            count=count * n_aap,
        )
        self.ledger.record(
            dpu,
            time_ns=count * t_dpu,
            energy_nj=count * e_dpu,
            count=count * n_dpu,
        )
        if eng is not None:
            eng.note_verify(
                count * (t_aap + t_dpu), count * (e_aap + e_dpu), ops=count
            )

    def _note_verify(
        self, eng: ResilienceEngine | None, checks: np.ndarray
    ) -> None:
        """Tell ``eng`` about groups of ``checks[i]`` parity checks whose
        ``VRF`` cells a batch stream already recorded, as one
        :meth:`_charge_verify` per nonzero group would."""
        checks = checks[checks > 0]
        if eng is None or not checks.size:
            return
        (_, _, t_aap, e_aap), (_, _, t_dpu, e_dpu) = self.scheduler.verify
        eng.note_verify_batch(
            checks * (t_aap + t_dpu), checks * (e_aap + e_dpu), checks
        )

    def _commit_result(
        self,
        sub,
        key: tuple[int, int, int],
        des_row: int,
        clean: np.ndarray,
        mechanism: str,
        mnemonic: str,
        charge_initial: bool = True,
    ) -> np.ndarray:
        """Charge, fault-inject and (under a detect policy) verify one op.

        ``clean`` is the fault-free result the sub-array just produced
        (currently resident in ``des_row``).  The verify loop models
        the in-memory parity check: a mismatch re-executes the
        operation — recharging its cycles — with exponentially
        re-staged operands (fault rate derated by ``restage_derate``
        per attempt) until it passes or the retry budget is exhausted.
        """
        if charge_initial:
            self._charge(mnemonic)
        faults = self.faults
        inject = (
            faults is not None
            and faults.enabled
            and faults.rate_for(mechanism) > 0.0
        )
        eng = self._verifying()
        if eng is None:
            if inject:
                return self._apply_faults(sub, des_row, clean, mechanism)
            return clean

        policy = eng.policy
        result = faults.corrupt(clean, mechanism) if inject else clean
        attempt = 0
        while True:
            self._charge_verify(eng)
            if np.array_equal(result, clean):
                if attempt:
                    eng.note_corrected()
                break
            eng.note_detected()
            if not policy.retry or attempt >= policy.max_retries:
                eng.note_uncorrected(key, des_row)
                if policy.raise_on_uncorrected:
                    sub.write_row(des_row, result)
                    raise UncorrectableFaultError(key, mechanism, attempt + 1)
                break
            attempt += 1
            eng.note_retry()
            # re-execution at re-staged (derated) margins
            self._charge(mnemonic)
            result = faults.corrupt(
                clean, mechanism, scale=policy.restage_derate**attempt
            )
        if not np.array_equal(result, clean):
            sub.write_row(des_row, result)
        elif result is not clean:
            sub.write_row(des_row, clean)
            result = clean
        return result

    # ----- tracing ------------------------------------------------------------

    def attach_trace(self, trace: CommandTrace | None) -> None:
        """Record subsequent commands into a
        :class:`repro.core.trace.CommandTrace` (None detaches).

        The controller's :attr:`scheduler` records its bulk charges and
        flushes into the same trace.
        """
        self._trace = trace
        self.scheduler.trace = trace

    def mark(self, label: str) -> None:
        """Drop a window marker into the attached trace, if any.

        Pipeline stages call this around layout-owning windows
        (``hashmap:begin`` ... ``hashmap:end``, scrub passes) so the
        trace verifier knows when the k-mer-table row designations are
        in force.  A no-op without a trace.
        """
        if self._trace is not None:
            self._trace.mark(label)

    def _record_trace(
        self,
        mnemonic: str,
        subarray: tuple[int, int, int],
        rows: tuple[int, ...],
        payload: np.ndarray | None = None,
    ) -> None:
        if self._trace is not None:
            self._trace.record(mnemonic, subarray, rows, payload)

    def _issue(
        self,
        mnemonic: str,
        subarray: tuple[int, int, int],
        rows: tuple[int, ...],
        payload: np.ndarray | None = None,
    ) -> None:
        """Trace one serial command and charge it under its
        :data:`~repro.core.isa.ISA` ledger name (free ones are not)."""
        if self._trace is not None:
            self._trace.record(mnemonic, subarray, rows, payload)
        charged = ISA[mnemonic].ledger
        if charged is not None:
            self._charge(charged)

    # ----- accounting helpers ----------------------------------------------

    def _charge(self, mnemonic: str, count: int = 1) -> None:
        """Record ``count`` serial commands at their cost-table price."""
        time_ns, energy_nj = self.scheduler.costs[mnemonic]
        self.ledger.record(
            mnemonic,
            time_ns=count * time_ns,
            energy_nj=count * energy_nj,
            count=count,
        )

    def _charge_scan(self, count: int) -> None:
        """Record ``count`` scanned comparisons: an AAP copy into x2,
        the XNOR into x3 and the DPU's AND-reduce each."""
        for mnemonic in ("AAP1", "AAP2", "DPU"):
            self._charge(mnemonic, count)

    # ----- single-instruction execution --------------------------------------

    def copy(self, src: RowAddress, des: RowAddress) -> None:
        """Type-1 AAP: RowClone ``src`` into ``des`` (same sub-array)."""
        instr = AapCopy(src=src, des=des)
        self.device.validate_address(src)
        self.device.validate_address(des)
        sub = self.device.subarray_at(src)
        sub.rowclone(src.row, des.row)
        if self.faults is not None and self.faults.copy_rate > 0.0:
            self._apply_faults(sub, des.row, sub.read_row(des.row), "copy")
        self._issue(instr.mnemonic, src.subarray_key, (src.row, des.row))

    def compute2(
        self,
        src1: RowAddress,
        src2: RowAddress,
        des: RowAddress,
        op: SAOp = SAOp.XNOR2,
    ) -> np.ndarray:
        """Type-2 AAP: two-row activation compute; returns the result row."""
        instr = AapCompute2(src1=src1, src2=src2, des=des, op=op)
        for addr in (src1, src2, des):
            self.device.validate_address(addr)
        sub = self.device.subarray_at(src1)
        clean = sub.compute2(src1.row, src2.row, des.row, op)
        self._record_trace(
            instr.mnemonic, src1.subarray_key, (src1.row, src2.row, des.row)
        )
        return self._commit_result(
            sub,
            src1.subarray_key,
            des.row,
            clean,
            "compute2",
            instr.mnemonic,
        )

    def tra_carry(
        self,
        src1: RowAddress,
        src2: RowAddress,
        src3: RowAddress,
        des: RowAddress,
    ) -> np.ndarray:
        """Type-3 AAP: TRA majority -> des (and the SA latch)."""
        instr = AapCompute3(src1=src1, src2=src2, src3=src3, des=des)
        for addr in (src1, src2, src3, des):
            self.device.validate_address(addr)
        sub = self.device.subarray_at(src1)
        clean = sub.tra_carry(src1.row, src2.row, src3.row, des.row)
        self._record_trace(
            instr.mnemonic,
            src1.subarray_key,
            (src1.row, src2.row, src3.row, des.row),
        )
        return self._commit_result(
            sub,
            src1.subarray_key,
            des.row,
            clean,
            "tra",
            instr.mnemonic,
        )

    def sum_cycle(
        self, src1: RowAddress, src2: RowAddress, des: RowAddress
    ) -> np.ndarray:
        """Latch-assisted sum: ``des = src1 ^ src2 ^ latch``."""
        for addr in (src1, src2, des):
            self.device.validate_address(addr)
        if not (src1.same_subarray(src2) and src1.same_subarray(des)):
            raise ValueError("sum-cycle operands must share a sub-array")
        sub = self.device.subarray_at(src1)
        clean = sub.sum_cycle(src1.row, src2.row, des.row)
        self._record_trace("SUM", src1.subarray_key, (src1.row, src2.row, des.row))
        return self._commit_result(
            sub,
            src1.subarray_key,
            des.row,
            clean,
            "sum",
            "SUM",
        )

    def load_latch(self, src: RowAddress) -> None:
        """Capture one row into the SA latch (one row cycle)."""
        self.device.validate_address(src)
        sub = self.device.subarray_at(src)
        sub.sa.load_latch(sub.read_row(src.row))
        self._issue("LATCH_LD", src.subarray_key, (src.row,))

    def clear_latch(self, subarray_key: tuple[int, int, int]) -> None:
        """Reset the carry latch (precharge-time side effect; free)."""
        self.device.subarray_at(subarray_key).sa.clear_latch()
        self._issue("LATCH_CLR", subarray_key, ())

    def write_row(self, des: RowAddress, bits: np.ndarray) -> None:
        """Host write (through the MAT's global row buffer)."""
        self.device.validate_address(des)
        arr = np.asarray(bits, dtype=np.uint8)
        self.device.subarray_at(des).write_row(des.row, arr)
        self._issue("MEM_WR", des.subarray_key, (des.row,), payload=arr)

    def read_row(self, src: RowAddress) -> np.ndarray:
        """Host read (through the MAT's global row buffer)."""
        self.device.validate_address(src)
        bits = self.device.subarray_at(src).read_row(src.row)
        self._issue("MEM_RD", src.subarray_key, (src.row,))
        return bits

    def _slots(self, keys: list, key_index: np.ndarray) -> np.ndarray:
        """Store slot of each entry's sub-array ``keys[key_index[i]]``.

        Sub-arrays are resolved in first-use order, the order a
        row-by-row loop would touch (and lazily claim) them.
        """
        used, first = np.unique(key_index, return_index=True)
        order = used[np.argsort(first)]
        slot_of = np.zeros(len(keys), dtype=np.intp)
        slot_of[order] = self.device.slots([keys[j] for j in order.tolist()])
        return slot_of[key_index]

    def read_fields(
        self,
        keys: list,
        key_index: np.ndarray,
        rows: np.ndarray,
        bit_offsets: np.ndarray,
        width: int,
    ) -> np.ndarray:
        """Host-read one ``width``-bit field from each of many rows.

        Entry ``i`` reads row ``rows[i]`` of sub-array
        ``keys[key_index[i]]``.  The accounting is that of one
        :meth:`read_row` per entry, in order: one ``MEM_RD`` trace
        entry each and one ledger stream of one ``MEM_RD`` record per
        entry.  The fields come from one vectorised gather; returns
        them as int64.
        """
        key_index = np.asarray(key_index, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        if self._trace is not None:
            for j, row in zip(key_index.tolist(), rows.tolist()):
                self._trace.record("MEM_RD", keys[j], (row,))
        n = rows.size
        if n:
            time_ns, energy_nj = self.scheduler.costs["MEM_RD"]
            self.ledger.record_batch(
                ("MEM_RD",),
                np.zeros(n, dtype=np.intp),
                np.ones(n, dtype=np.int64),
                np.full(n, time_ns),
                np.full(n, energy_nj),
            )
        slots = self._slots(keys, key_index)
        return self.device.store.read_fields(slots, rows, bit_offsets, width)

    def scrub_rows(
        self,
        keys: list,
        key_index: np.ndarray,
        rows: np.ndarray,
        expected_words: np.ndarray,
        on_drift: Callable[[int], None] | None = None,
    ) -> np.ndarray:
        """Parity-check many resident rows; True where a row is intact.

        Entry ``i`` checks row ``rows[i]`` of sub-array
        ``keys[key_index[i]]`` against ``expected_words[i]``, the row's
        host-shadow content packed as in the store.  Each check
        recomputes the row's parity through the add-on XOR path and
        reduces it on the DPU, the ``VRF`` cycles a per-op check
        costs: this accounts as one parity check per entry, in order,
        sent to the ledger as one stream.  ``on_drift(i)`` runs right
        after entry ``i``'s check when that row drifted, splitting the
        stream there, so a caller's repair lands in the command stream
        where a row-by-row scrub puts it.  Functionally it is one
        gather of packed words and one whole-word compare (tail bits
        are zero on both sides).
        """
        key_index = np.asarray(key_index, dtype=np.intp)
        rows = np.asarray(rows, dtype=np.intp)
        n_rows = self.device.geometry.bank.mat.subarray.rows
        if rows.size and (rows.min() < 0 or rows.max() >= n_rows):
            raise IndexError(f"scrub row out of range 0..{n_rows - 1}")
        stored = self.device.store.tensor[self._slots(keys, key_index), rows]
        intact = (stored == expected_words).all(axis=1)
        drifted = (
            np.flatnonzero(~intact).tolist() if on_drift is not None else []
        )
        eng = self.resilience
        (aap, n_aap, t_aap, e_aap), (dpu, n_dpu, t_dpu, e_dpu) = (
            self.scheduler.verify
        )
        lo = 0
        for i in drifted + [None]:
            hi = rows.size if i is None else i + 1
            if hi > lo:
                # per row: its VRF_AAP cycles, then its VRF_DPU reduce
                m = hi - lo
                self.ledger.record_batch(
                    (aap, dpu),
                    np.tile([0, 1], m),
                    np.tile([n_aap, n_dpu], m),
                    np.tile([t_aap, t_dpu], m),
                    np.tile([e_aap, e_dpu], m),
                )
                self._note_verify(eng, np.ones(m, dtype=np.int64))
            if i is not None and on_drift is not None:
                on_drift(i)
            lo = hi
        return intact

    # ----- DPU path -----------------------------------------------------------

    def dpu_match(
        self,
        result_row: RowAddress,
        mask: np.ndarray | None = None,
        bits: np.ndarray | None = None,
    ) -> bool:
        """AND-reduce a PIM_XNOR result row: True iff rows matched.

        Args:
            result_row: row holding the XNOR2 output.
            mask: optional validity mask (1 where the comparison is
                meaningful, e.g. the 2k bits of a k-mer).
            bits: the row's contents when the caller already has them
                (e.g. the XNOR result it just produced), skipping the
                redundant re-read of ``result_row``.
        """
        self.device.validate_address(result_row)
        if bits is None:
            bits = self.device.subarray_at(result_row).read_row(result_row.row)
        if mask is None:
            outcome = self.dpu.and_reduce(bits)
        else:
            outcome = self.dpu.masked_and_reduce(bits, mask)
        self._issue("DPU", result_row.subarray_key, (result_row.row,))
        return bool(outcome)

    def dpu_scalar_add(
        self,
        subarray_key: tuple[int, int, int],
        a: int,
        b: int,
        bits: int = 8,
    ) -> int:
        """Non-bulk add on the MAT's DPU (counter increments etc.)."""
        self.device.validate_address(RowAddress(*subarray_key, row=0))
        result = self.dpu.scalar_add(a, b, bits=bits)
        self._issue("DPU", subarray_key, ())
        return result

    # ----- gang (SIMD) execution ----------------------------------------------

    def gang_compute2(
        self,
        ops: Sequence[tuple[RowAddress, RowAddress, RowAddress]],
        op: SAOp = SAOp.XNOR2,
    ) -> list[np.ndarray]:
        """Execute the same two-row compute across many sub-arrays at once.

        All member operations occupy distinct sub-arrays and run in one
        command slot: time charged once, energy per member.  Fault
        injection (and, with a resilience engine attached, per-member
        verification and retry — retries re-execute solo) follows the
        same path as :meth:`compute2`.
        """
        if not ops:
            raise ValueError("gang must be non-empty")
        keys = {src1.subarray_key for src1, _, _ in ops}
        if len(keys) != len(ops):
            raise ValueError("gang members must live in distinct sub-arrays")
        # one command slot: time once, energy per member
        time_ns, energy_nj = self.scheduler.costs["AAP2"]
        self.ledger.record(
            "AAP2",
            time_ns=time_ns,
            energy_nj=energy_nj * len(ops),
            count=len(ops),
        )
        results = []
        for src1, src2, des in ops:
            AapCompute2(src1=src1, src2=src2, des=des, op=op)  # validate
            sub = self.device.subarray_at(src1)
            clean = sub.compute2(src1.row, src2.row, des.row, op)
            self._record_trace(
                "AAP2", src1.subarray_key, (src1.row, src2.row, des.row)
            )
            results.append(
                self._commit_result(
                    sub,
                    src1.subarray_key,
                    des.row,
                    clean,
                    "compute2",
                    "AAP2",
                    charge_initial=False,
                )
            )
        return results

    # ----- compound operations -------------------------------------------------

    def xnor_rows(
        self,
        a: RowAddress,
        b: RowAddress,
        des: RowAddress,
        staged: bool = False,
    ) -> np.ndarray:
        """Full PIM_XNOR: stage operands into compute rows, then compute.

        Args:
            a, b: operand rows (any rows of one sub-array).
            des: destination row.
            staged: when True the operands are assumed to already sit in
                compute rows x1/x2 (e.g. the temp row of the hash-table
                layout), skipping the two staging RowClones.

        Returns:
            The XNOR2 row (1 where bits agree).
        """
        if not (a.same_subarray(b) and a.same_subarray(des)):
            raise ValueError("PIM_XNOR operands must share a sub-array")
        if staged:
            return self.compute2(a, b, des, SAOp.XNOR2)
        sub = self.device.subarray_at(a)
        x1 = a.with_row(sub.compute_row(1))
        x2 = a.with_row(sub.compute_row(2))
        self.copy(a, x1)
        self.copy(b, x2)
        return self.compute2(x1, x2, des, SAOp.XNOR2)

    def compare_scan(
        self,
        temp: RowAddress,
        start_row: int,
        n_rows: int,
        valid_bits: int | None = None,
    ) -> int | None:
        """Sequential PIM_XNOR scan of a row block against a query row.

        The hardware protocol of Fig. 6/7: the temp row is RowCloned
        into compute row x1 once; then for each candidate row the
        controller RowClones it into x2, fires the two-row-activation
        XNOR into x3 and lets the DPU's AND unit decide.  The scan
        stops at the first match (the DPU outcome gates the next
        command).

        Functionally this is evaluated vectorised over the whole block;
        the ledger is charged exactly what the sequential hardware
        sequence would issue: 1 staging AAP + per scanned row
        (1 AAP copy + 1 AAP compute + 1 DPU op), plus — under a detect
        policy — one ``VRF`` check per scanned row, and one scan-row
        re-execution per retry of a flagged comparison.

        Args:
            temp: the query row.
            start_row: first candidate row (physical index).
            n_rows: number of candidate rows.
            valid_bits: compare only the first ``valid_bits`` columns.

        Returns:
            The matching slot offset (0-based from ``start_row``), or
            ``None`` when no row matches.
        """
        with span("pim.compare_scan", rows=n_rows):
            return self._compare_scan_impl(temp, start_row, n_rows, valid_bits)

    def _compare_scan_impl(
        self,
        temp: RowAddress,
        start_row: int,
        n_rows: int,
        valid_bits: int | None,
    ) -> int | None:
        if n_rows < 0:
            raise ValueError("n_rows must be non-negative")
        self.device.validate_address(temp)
        sub = self.device.subarray_at(temp)
        x1 = sub.compute_row(1)
        x2 = sub.compute_row(2)
        x3 = sub.compute_row(3)

        # Stage the query into x1 (one AAP), mirroring xnor_rows.
        sub.rowclone(temp.row, x1)
        self._issue("AAP1", temp.subarray_key, (temp.row, x1))
        if n_rows == 0:
            return None

        # Packed-word compare: the query and candidate block stay in
        # their stored uint64 representation; only the valid columns
        # participate via the width mask (tail bits are zero anyway).
        store, slot = sub.store, sub.slot
        width = sub.cols if valid_bits is None else valid_bits
        mask = width_mask(sub.cols, width)
        diff = (
            store.block_words(slot, start_row, start_row + n_rows) & mask
        ) ^ (store.row_words(slot, x1) & mask)
        matches = ~diff.any(axis=1)
        eng = self._verifying()
        if (
            self.faults is not None
            and self.faults.enabled
            and self.faults.compute2_rate > 0.0
        ):
            # Each scanned row's XNOR result can flip bits: a true
            # match is missed when any of the `width` result bits
            # flips; a mismatch becomes a false match only when every
            # differing bit flips (probability rate^hamming).
            rate = self.faults.compute2_rate
            hamming = popcount_words(diff)
            p_err = np.where(
                matches,
                1.0 - (1.0 - rate) ** width,
                rate ** np.maximum(hamming, 1),
            )
            err = self.faults.decide(n_rows, p_err)
            if eng is not None:
                err = self._scan_recover(
                    eng, err, matches, hamming, width, rate, temp, start_row
                )
            matches = matches ^ err
        hit = int(np.argmax(matches)) if matches.any() else None
        scanned = n_rows if hit is None else hit + 1

        if eng is not None:
            # the in-memory parity check rides every scanned comparison
            self._charge_verify(eng, count=scanned)

        # Leave the machine state as the sequential scan would: the
        # last candidate in x2 and its XNOR result in x3.
        last = start_row + scanned - 1
        sub.rowclone(last, x2)
        sub.compute2(x1, x2, x3, SAOp.XNOR2)

        if self._trace is not None:
            record = self._trace.record
            key = temp.subarray_key
            # every scanned row issues the same XNOR and DPU operands
            xnor, observe = (x1, x2, x3), (x3,)
            for row in range(start_row, start_row + scanned):
                record("AAP1", key, (row, x2))
                record("AAP2", key, xnor)
                record("DPU", key, observe)

        self._charge_scan(scanned)
        return hit

    def _scan_recover(
        self,
        eng: ResilienceEngine,
        err: np.ndarray,
        matches: np.ndarray,
        hamming: np.ndarray,
        width: int,
        rate: float,
        temp: RowAddress,
        start_row: int,
    ) -> np.ndarray:
        """Detect-and-retry over a scan's flagged comparisons.

        Every flagged comparison is re-executed (1 AAP copy + 1 AAP
        compute + 1 DPU each, charged) at exponentially re-staged
        margins; comparisons still flagged after the retry budget are
        uncorrectable and surface as scan errors.
        """
        detected = int(err.sum())
        if detected == 0:
            return err
        eng.note_detected(detected)
        policy = eng.policy
        if not policy.retry:
            for i in np.flatnonzero(err):
                eng.note_uncorrected(temp.subarray_key, start_row + int(i))
            return err
        remaining = err.copy()
        for attempt in range(1, policy.max_retries + 1):
            idx = np.flatnonzero(remaining)
            if idx.size == 0:
                break
            eng.note_retry(int(idx.size))
            self._charge_scan(int(idx.size))
            self._charge_verify(eng, count=int(idx.size))
            derated = rate * policy.restage_derate**attempt
            p_retry = np.where(
                matches[idx],
                1.0 - (1.0 - derated) ** width,
                derated ** np.maximum(hamming[idx], 1),
            )
            remaining[idx] = self.faults.decide(int(idx.size), p_retry)
        still = int(remaining.sum())
        if detected - still:
            eng.note_corrected(detected - still)
        for i in np.flatnonzero(remaining):
            eng.note_uncorrected(temp.subarray_key, start_row + int(i))
        return remaining

    def ripple_add(
        self,
        a_rows: Sequence[RowAddress],
        b_rows: Sequence[RowAddress],
        sum_rows: Sequence[RowAddress],
        carry_row: RowAddress,
    ) -> None:
        """Bit-serial addition of two bit-plane words: 2 cycles per bit.

        ``a_rows``/``b_rows``/``sum_rows`` list the bit planes LSB first;
        each row holds that bit position for 256 independent words (one
        per column).  ``carry_row`` is scratch; it must start at zero
        (the controller clears it) and ends holding the carry out of the
        MSB.
        """
        if not (len(a_rows) == len(b_rows) == len(sum_rows)):
            raise ValueError("operand bit-plane lists must have equal length")
        if not a_rows:
            raise ValueError("ripple_add needs at least one bit plane")
        key = a_rows[0].subarray_key
        for addr in (*a_rows, *b_rows, *sum_rows, carry_row):
            if addr.subarray_key != key:
                raise ValueError("ripple_add operands must share a sub-array")
        with span("pim.ripple_add", bits=len(a_rows)):
            # The carry zeroing is a real command (a RowClone off the
            # constant row), not free controller bookkeeping: trace and
            # charge it, and trace the latch reset, so a replayed
            # stream reproduces the adder's starting state.  Both were
            # silent device pokes before the trace verifier flagged the
            # replay hole.
            self.init_row(carry_row, 0)
            self.clear_latch(carry_row.subarray_key)
            for a_i, b_i, s_i in zip(a_rows, b_rows, sum_rows):
                self.sum_cycle(a_i, b_i, s_i)
                self.tra_carry(a_i, b_i, carry_row, carry_row)

    def compress_3to2(
        self,
        r1: RowAddress,
        r2: RowAddress,
        r3: RowAddress,
        sum_des: RowAddress,
        carry_des: RowAddress,
    ) -> None:
        """Carry-save 3:2 compression of three rows (Fig. 8's C/S step).

        Costs 3 cycles: one latch load (capture ``r3`` as the incoming
        carry), one sum cycle, one TRA carry cycle.
        """
        self.load_latch(r3)
        self.sum_cycle(r1, r2, sum_des)
        self.tra_carry(r1, r2, r3, carry_des)

    # ----- extended operations ---------------------------------------------------

    def init_row(self, des: RowAddress, value: int = 0) -> None:
        """Initialise a row to all-0 or all-1.

        Hardware realisation: a RowClone from one of the two reserved
        constant rows every Ambit-class design keeps (one AAP) — hence
        the AAP1 cost, not a host write.
        """
        if value not in (0, 1):
            raise ValueError("init value must be 0 or 1")
        self.device.validate_address(des)
        sub = self.device.subarray_at(des)
        fill = np.full(sub.cols, value, dtype=np.uint8)
        sub.write_row(des.row, fill)
        # Traced as ROW_INIT (carrying the fill value) rather than a
        # degenerate src==des AAP1: the self-copy form replayed as a
        # no-op, losing init-to-1 state.
        self._issue(
            "ROW_INIT", des.subarray_key, (des.row,), np.array([value], dtype=np.uint8)
        )
