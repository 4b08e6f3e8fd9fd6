"""Dataflow verification of recorded AAP command streams.

The paper's correctness story rests on hard ISA rules: a type-2/3 AAP
may only land results on designated compute rows, TRA majority needs
three initialised operand rows, and the add-on latch must be loaded
before the sum MUX reads it.  This module checks a recorded command
stream (a :class:`~repro.analysis.tracefile.TraceDocument`) against
those rules and reports typed findings.

Rule catalogue
==============

Stream rules (any document):

=====  ===================================================================
V001   unknown mnemonic (not in :data:`repro.core.isa.ALL_MNEMONICS`)
V002   malformed operands: wrong arity, row out of range, bad payload,
       degenerate self-copy, repeated two-/three-row-activation operand
=====  ===================================================================

Dataflow rules (complete scalar streams):

=====  ===================================================================
V003   read of an uninitialised row (TRA/activation operands included)
V004   latch use-before-load: ``SUM`` with unknown latch state
V005   missing precharge: an activation's destination is one of its own
       activated source rows (type-2/``SUM``; the in-place TRA form
       ``AAP3 src==des`` is legal — Ambit's majority lands on all three
       activated rows)
=====  ===================================================================

Layout rules (inside a ``hashmap:begin``/``end`` window, suspended
inside ``scrub:begin``/``end``):

=====  ===================================================================
V006   copy clobbers a live table row: ``AAP1`` into an occupied k-mer
       slot, or into the value/temp region
V007   operand outside the designated row set: compute destinations off
       the compute rows, host writes into the k-mer region
=====  ===================================================================

Accounting rules (complete scalar documents carrying ledger totals):

=====  ===================================================================
V008   cost-table-inconsistent timing: ledger time differs from
       Σ count × latency, or an unpriced mnemonic was charged
V009   trace/ledger command-count mismatch (``AAP1`` ledger count folds
       the ``ROW_INIT`` trace entries, which hardware issues as AAP1)
=====  ===================================================================

Charge rules (the scheduler charges a bulk trace records):

=====  ===================================================================
C001   charge with an unknown mnemonic
C002   charge with a non-positive count
C003   charge total inconsistent with count × cost-table latency
C004   flush math wrong: serial ≠ Σ charges, makespan ≠ busiest
       resource, or makespan > serial (non-monotone timing)
C005   charges left unflushed at end of stream
=====  ===================================================================
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.analysis.findings import FindingReport
from repro.analysis.tracefile import TraceDocument
from repro.core.isa import ALL_MNEMONICS
from repro.core.timing import (
    DEFAULT_TIMING,
    TimingParameters,
    command_latency_table,
)
from repro.core.trace import CommandTrace, TraceEntry

__all__ = [
    "StreamVerifier",
    "verify_charges",
    "verify_document",
]

#: mnemonics whose ledger counts a complete scalar trace must match 1:1
_LEDGER_MATCHED = (
    "AAP2",
    "AAP3",
    "SUM",
    "LATCH_LD",
    "MEM_WR",
    "MEM_RD",
    "DPU",
)

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


class StreamVerifier:
    """Streaming rule engine over one command stream.

    Feed entries in issue order via :meth:`feed` (and window markers
    via :meth:`feed_mark`), then call :meth:`finish`.  Findings
    accumulate in :attr:`report`.

    Args:
        geometry: ``{"rows", "cols", "compute_rows", "data_rows"}`` of
            the sub-arrays the stream targets.
        layout: hash-table row regions (enables V006/V007 inside
            hashmap windows); ``None`` disables the layout rules.
        cold_start: treat *all* rows as uninitialised at stream start
            (crafted test streams); the default assumes data rows hold
            pre-loaded content and only compute rows start undefined.
        check_dataflow: enable V003-V007 (complete streams only — a
            partial stream would see reads of rows whose writes were
            never recorded).
        source: artefact name used in findings.
    """

    def __init__(
        self,
        geometry: dict,
        layout: dict | None = None,
        cold_start: bool = False,
        check_dataflow: bool = True,
        source: str = "<trace>",
        report: FindingReport | None = None,
    ) -> None:
        self.report = report if report is not None else FindingReport()
        self.source = source
        self.rows = int(geometry["rows"])
        self.cols = int(geometry["cols"])
        self.data_rows = int(geometry["data_rows"])
        self.layout = layout
        self.cold_start = cold_start
        self.check_dataflow = check_dataflow
        self._index = 0
        #: per-subarray set of initialised rows (dataflow state)
        self._defined: dict[tuple[int, ...], set[int]] = {}
        #: per-subarray "latch holds a known value" flag
        self._latch_known: dict[tuple[int, ...], bool] = {}
        #: per-subarray occupied k-mer slots inside the hashmap window
        self._inserted: dict[tuple[int, ...], set[int]] = {}
        self._in_hashmap = False
        self._in_scrub = False

    # ----- helpers ---------------------------------------------------------

    def _flag(self, rule: str, message: str, index: int | None = None) -> None:
        self.report.add(
            rule,
            message,
            source=self.source,
            location=self._index if index is None else index,
        )

    def _defined_rows(self, sub: tuple[int, ...]) -> set[int]:
        if sub not in self._defined:
            if self.cold_start:
                self._defined[sub] = set()
            else:
                # data rows hold pre-existing content; compute rows
                # behind the modified decoder always start undefined
                self._defined[sub] = set(range(self.data_rows))
        return self._defined[sub]

    def _check_read(self, sub: tuple[int, ...], row: int, what: str) -> None:
        if not self.check_dataflow:
            return
        if row not in self._defined_rows(sub):
            self._flag(
                "V003",
                f"{what} reads uninitialised row {row} of sub-array {sub}",
            )

    def _define(self, sub: tuple[int, ...], row: int) -> None:
        if self.check_dataflow:
            self._defined_rows(sub).add(row)

    def _is_compute(self, row: int) -> bool:
        return row >= self.data_rows

    def _rows_ok(
        self, mnemonic: str, sub: tuple[int, ...], rows: tuple[int, ...]
    ) -> bool:
        for row in rows:
            if not 0 <= row < self.rows:
                self._flag(
                    "V002",
                    f"{mnemonic} row {row} outside sub-array "
                    f"[0, {self.rows}) at {sub}",
                )
                return False
        return True

    # ----- window marks ----------------------------------------------------

    def feed_mark(self, label: str) -> None:
        if label == "hashmap:begin":
            self._in_hashmap = True
        elif label == "hashmap:end":
            self._in_hashmap = False
            self._inserted.clear()
        elif label == "scrub:begin":
            self._in_scrub = True
        elif label == "scrub:end":
            self._in_scrub = False

    # ----- layout (window) rules -------------------------------------------

    def _layout_rules(
        self,
        mnemonic: str,
        sub: tuple[int, ...],
        rows: tuple[int, ...],
    ) -> None:
        if self.layout is None or not self._in_hashmap or self._in_scrub:
            return
        kmer_rows = int(self.layout["kmer_rows"])
        value_end = kmer_rows + int(self.layout["value_rows"])
        temp_end = value_end + int(self.layout["temp_rows"])

        if mnemonic == "AAP1":
            des = rows[1]
            if des < kmer_rows:
                slots = self._inserted.setdefault(tuple(sub), set())
                if des in slots:
                    self._flag(
                        "V006",
                        f"AAP1 clobbers live k-mer slot row {des} of "
                        f"sub-array {sub} (already inserted this window)",
                    )
                slots.add(des)
            elif des < temp_end:
                region = "value" if des < value_end else "temp"
                self._flag(
                    "V006",
                    f"AAP1 copy into the {region} region (row {des}) of "
                    f"sub-array {sub} during the hashmap window",
                )
        elif mnemonic in ("AAP2", "AAP3", "SUM"):
            des = rows[-1]
            if not self._is_compute(des):
                self._flag(
                    "V007",
                    f"{mnemonic} destination row {des} of sub-array {sub} "
                    f"is outside the designated compute rows "
                    f"[{self.data_rows}, {self.rows}) during the hashmap "
                    "window",
                )
        elif mnemonic in ("MEM_WR", "ROW_INIT"):
            des = rows[0]
            if des < kmer_rows:
                self._flag(
                    "V007",
                    f"{mnemonic} host write into the k-mer region "
                    f"(row {des}) of sub-array {sub} during the hashmap "
                    "window (only temp/value rows take host writes)",
                )

    # ----- the per-entry rule engine ---------------------------------------

    def feed(
        self,
        mnemonic: str,
        subarray: tuple[int, ...],
        rows: tuple[int, ...],
        payload: tuple[int, ...] | None = None,
    ) -> int:
        """Check one command; returns the number of new findings."""
        before = len(self.report)
        sub = tuple(subarray)
        if mnemonic not in ALL_MNEMONICS:
            self._flag("V001", f"unknown mnemonic {mnemonic!r}")
            self._index += 1
            return len(self.report) - before

        arity = {
            "AAP1": 2,
            "AAP2": 3,
            "AAP3": 4,
            "SUM": 3,
            "LATCH_LD": 1,
            "LATCH_CLR": 0,
            "ROW_INIT": 1,
            "MEM_WR": 1,
            "MEM_RD": 1,
        }
        if mnemonic == "DPU":
            if len(rows) > 1:
                self._flag("V002", f"DPU takes at most one row, got {len(rows)}")
                self._index += 1
                return len(self.report) - before
        elif len(rows) != arity[mnemonic]:
            self._flag(
                "V002",
                f"{mnemonic} takes {arity[mnemonic]} row operand(s), "
                f"got {len(rows)}",
            )
            self._index += 1
            return len(self.report) - before
        if not self._rows_ok(mnemonic, sub, rows):
            self._index += 1
            return len(self.report) - before

        if mnemonic == "AAP1":
            src, des = rows
            if src == des:
                self._flag(
                    "V002",
                    f"AAP1 with src == des (row {src}) is a dead command "
                    "(RowClone onto itself)",
                )
            else:
                self._check_read(sub, src, "AAP1")
                self._define(sub, des)
            self._layout_rules(mnemonic, sub, rows)
        elif mnemonic == "AAP2":
            s1, s2, des = rows
            if s1 == s2:
                self._flag(
                    "V002",
                    f"AAP2 requires two distinct source rows, got {s1} twice",
                )
            if des in (s1, s2):
                self._flag(
                    "V005",
                    f"AAP2 destination row {des} is an activated source — "
                    "missing precharge between activations",
                )
            self._check_read(sub, s1, "AAP2")
            if s2 != s1:
                self._check_read(sub, s2, "AAP2")
            if des not in (s1, s2):
                self._define(sub, des)
            self._layout_rules(mnemonic, sub, rows)
        elif mnemonic == "AAP3":
            s1, s2, s3, des = rows
            if len({s1, s2, s3}) != 3:
                self._flag(
                    "V002",
                    f"AAP3 requires three distinct source rows, got "
                    f"({s1}, {s2}, {s3})",
                )
            for s in dict.fromkeys((s1, s2, s3)):
                self._check_read(sub, s, "AAP3")
            # in-place TRA (des == a source) is legal: the majority
            # lands on all three activated rows
            self._define(sub, des)
            self._latch_known[sub] = True  # TRA captures the carry
            self._layout_rules(mnemonic, sub, rows)
        elif mnemonic == "SUM":
            s1, s2, des = rows
            if s1 == s2:
                self._flag(
                    "V002",
                    f"SUM requires two distinct addend rows, got {s1} twice",
                )
            if des in (s1, s2):
                self._flag(
                    "V005",
                    f"SUM destination row {des} is an activated addend — "
                    "missing precharge between activations",
                )
            if self.check_dataflow and not self._latch_known.get(sub, False):
                self._flag(
                    "V004",
                    f"SUM on sub-array {sub} consumes the carry latch "
                    "before any LATCH_LD/TRA/LATCH_CLR set it",
                )
            self._check_read(sub, s1, "SUM")
            if s2 != s1:
                self._check_read(sub, s2, "SUM")
            if des not in (s1, s2):
                self._define(sub, des)
            self._layout_rules(mnemonic, sub, rows)
        elif mnemonic == "LATCH_LD":
            self._check_read(sub, rows[0], "LATCH_LD")
            self._latch_known[sub] = True
        elif mnemonic == "LATCH_CLR":
            self._latch_known[sub] = True
        elif mnemonic == "ROW_INIT":
            if payload is None or len(payload) != 1 or payload[0] not in (0, 1):
                self._flag(
                    "V002",
                    "ROW_INIT payload must be a single 0/1 fill value, "
                    f"got {payload!r}",
                )
            self._define(sub, rows[0])
            self._layout_rules(mnemonic, sub, rows)
        elif mnemonic == "MEM_WR":
            if payload is None or len(payload) != self.cols:
                got = "none" if payload is None else str(len(payload))
                self._flag(
                    "V002",
                    f"MEM_WR payload must cover the {self.cols}-column "
                    f"row, got {got} bits",
                )
            self._define(sub, rows[0])
            self._layout_rules(mnemonic, sub, rows)
        elif mnemonic == "MEM_RD":
            self._check_read(sub, rows[0], "MEM_RD")
        elif mnemonic == "DPU":
            if rows:
                self._check_read(sub, rows[0], "DPU")

        self._index += 1
        return len(self.report) - before

    def feed_entry(self, entry: TraceEntry) -> int:
        return self.feed(entry.mnemonic, entry.subarray, entry.rows, entry.payload)

    def finish(self) -> FindingReport:
        return self.report


def _iter_with_marks(doc: TraceDocument) -> Iterable[tuple[str, object]]:
    """Merge entries and marks into one ordered stream."""
    marks = sorted(doc.trace.marks, key=lambda m: m[0])
    mi = 0
    for entry in doc.trace:
        while mi < len(marks) and marks[mi][0] <= entry.index:
            yield "mark", marks[mi][1]
            mi += 1
        yield "entry", entry
    while mi < len(marks):
        yield "mark", marks[mi][1]
        mi += 1


def _doc_timing(doc: TraceDocument) -> TimingParameters:
    if not doc.timing:
        return DEFAULT_TIMING
    fields = {k: float(v) for k, v in doc.timing.items()}
    return TimingParameters(**fields)


def verify_charges(
    trace: CommandTrace,
    timing: TimingParameters,
    report: FindingReport,
    source: str = "<charges>",
) -> None:
    """Check a trace's batched-scheduler charges (rules C001-C005)."""
    latencies = command_latency_table(timing)
    charges = trace.charges
    flush_points = trace.flushes
    fi = 0
    serial = 0.0
    commands = 0
    busy: dict[tuple, float] = {}
    for pos, (mnemonic, sub, count, time_ns) in enumerate(charges):
        while fi < len(flush_points) and flush_points[fi][0] <= pos:
            _check_flush(
                flush_points[fi], serial, busy, commands, report, source
            )
            serial, commands, busy = 0.0, 0, {}
            fi += 1
        if mnemonic not in latencies:
            report.add(
                "C001",
                f"charge of unknown mnemonic {mnemonic!r}",
                source=source,
                location=pos,
            )
            continue
        if count <= 0:
            report.add(
                "C002",
                f"charge of {mnemonic} with non-positive count {count}",
                source=source,
                location=pos,
            )
            continue
        expected = count * latencies[mnemonic]
        if not _close(time_ns, expected):
            report.add(
                "C003",
                f"charge of {count}x {mnemonic} records {time_ns:.3f} ns, "
                f"cost table says {expected:.3f} ns",
                source=source,
                location=pos,
            )
        serial += time_ns
        commands += count
        if mnemonic == "DPU":
            busy[("dpu", sub[0], sub[1])] = (
                busy.get(("dpu", sub[0], sub[1]), 0.0) + time_ns
            )
        else:
            busy[tuple(sub)] = busy.get(tuple(sub), 0.0) + time_ns
            if mnemonic in ("MEM_RD", "MEM_WR"):
                grb = ("grb", sub[0], sub[1])
                busy[grb] = busy.get(grb, 0.0) + time_ns
    while fi < len(flush_points):
        _check_flush(flush_points[fi], serial, busy, commands, report, source)
        serial, commands, busy = 0.0, 0, {}
        fi += 1
    if commands:
        report.add(
            "C005",
            f"{commands} command(s) charged after the last flush were "
            "never flushed to the ledger",
            source=source,
            location=len(charges),
        )


def _check_flush(
    flush: tuple[int, float, float, int],
    serial: float,
    busy: dict,
    commands: int,
    report: FindingReport,
    source: str,
) -> None:
    at, serial_rec, makespan_rec, commands_rec = flush
    if not _close(serial_rec, serial):
        report.add(
            "C004",
            f"flush at charge #{at} records serial {serial_rec:.3f} ns, "
            f"charges sum to {serial:.3f} ns",
            source=source,
            location=at,
        )
    makespan = max(busy.values(), default=0.0)
    if not _close(makespan_rec, makespan):
        report.add(
            "C004",
            f"flush at charge #{at} records makespan {makespan_rec:.3f} ns, "
            f"busiest resource is {makespan:.3f} ns",
            source=source,
            location=at,
        )
    if makespan_rec > serial_rec + _ABS_TOL:
        report.add(
            "C004",
            f"flush at charge #{at} has makespan {makespan_rec:.3f} ns "
            f"exceeding serial time {serial_rec:.3f} ns (non-monotone "
            "timing)",
            source=source,
            location=at,
        )
    if commands_rec != commands:
        report.add(
            "C004",
            f"flush at charge #{at} records {commands_rec} commands, "
            f"charges sum to {commands}",
            source=source,
            location=at,
        )


def _verify_accounting(
    doc: TraceDocument, report: FindingReport, source: str
) -> None:
    """Ledger-side rules V008/V009 for complete scalar documents."""
    ledger = doc.ledger or {}
    counts = {str(k): int(v) for k, v in (ledger.get("commands") or {}).items()}
    if not counts:
        return
    if any(m.startswith("VRF_") for m in counts):
        # verified runs recharge retried ops without re-tracing them;
        # count/time folding is only exact for unverified streams
        return
    timing = _doc_timing(doc)
    latencies = command_latency_table(timing)
    expected_time = 0.0
    priced = True
    for mnemonic, count in counts.items():
        if mnemonic not in latencies:
            report.add(
                "V008",
                f"ledger charges {count}x {mnemonic}, which the cost "
                "table does not price",
                source=source,
            )
            priced = False
            continue
        expected_time += count * latencies[mnemonic]
    time_ns = float(ledger.get("time_ns", 0.0))
    if priced and not _close(time_ns, expected_time):
        report.add(
            "V008",
            f"ledger total {time_ns:.3f} ns is inconsistent with the "
            f"cost table (sum of count x latency = {expected_time:.3f} ns)",
            source=source,
        )

    from collections import Counter

    traced: Counter = Counter()
    for entry in doc.trace:
        traced[entry.mnemonic] += 1
    # hardware issues ROW_INIT as an AAP1 (RowClone off the constant
    # row); the ledger charges it under AAP1
    folded_aap1 = traced["AAP1"] + traced["ROW_INIT"]
    if counts.get("AAP1", 0) != folded_aap1:
        report.add(
            "V009",
            f"ledger counts {counts.get('AAP1', 0)} AAP1 but the trace "
            f"holds {traced['AAP1']} AAP1 + {traced['ROW_INIT']} ROW_INIT "
            f"= {folded_aap1}",
            source=source,
        )
    for mnemonic in _LEDGER_MATCHED:
        if counts.get(mnemonic, 0) != traced[mnemonic]:
            report.add(
                "V009",
                f"ledger counts {counts.get(mnemonic, 0)} {mnemonic} but "
                f"the trace holds {traced[mnemonic]}",
                source=source,
            )
    if "LATCH_CLR" in counts:
        report.add(
            "V009",
            "LATCH_CLR is a free precharge side effect and must not be "
            "charged to the ledger",
            source=source,
        )


def verify_document(doc: TraceDocument, source: str = "<trace>") -> FindingReport:
    """Run every applicable rule over one trace document."""
    report = FindingReport()
    verifier = StreamVerifier(
        geometry=doc.geometry,
        layout=doc.layout,
        cold_start=doc.cold_start,
        check_dataflow=doc.complete,
        source=source,
        report=report,
    )
    for kind, item in _iter_with_marks(doc):
        if kind == "mark":
            verifier.feed_mark(item)  # type: ignore[arg-type]
        else:
            verifier.feed_entry(item)  # type: ignore[arg-type]
    verifier.finish()
    verify_charges(
        doc.trace, _doc_timing(doc), report, source=f"{source}#charges"
    )
    if doc.complete:
        _verify_accounting(doc, report, source=source)
    return report
