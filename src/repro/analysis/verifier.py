"""Dataflow verification of recorded AAP command streams.

The paper's correctness story rests on hard ISA rules: a type-2/3 AAP
may only land results on designated compute rows, TRA majority needs
three initialised operand rows, and the add-on latch must be loaded
before the sum MUX reads it.  This module checks a recorded command
stream (a :class:`~repro.analysis.tracefile.TraceDocument`) against
those rules and reports typed findings.  Every per-mnemonic fact a rule
needs (arity, operand positions, payload kind, latch effects, ledger
name, resources) comes from the instruction table
:data:`repro.core.isa.ISA`.

Rule catalogue
==============

Stream rules (any document):

=====  ===================================================================
V001   unknown mnemonic (not in :data:`repro.core.isa.ISA`)
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
V009   trace/ledger command-count mismatch: trace counts folded to
       their table ledger names differ from the ledger's, or the ledger
       counts a mnemonic the table charges under another name (or free)
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
import reprlib
from collections import Counter
from typing import Iterator

from repro.analysis.findings import FindingReport
from repro.analysis.tracefile import TraceDocument
from repro.core.isa import ISA, ledger_counts, resource_key
from repro.core.timing import TimingParameters, command_latency_table
from repro.core.trace import CommandTrace, TraceEntry

__all__ = [
    "StreamVerifier",
    "verify_charges",
    "verify_document",
]

_REL_TOL = 1e-9
_ABS_TOL = 1e-6


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=_REL_TOL, abs_tol=_ABS_TOL)


#: the :data:`~repro.core.isa.ISA` facts the per-command rules read, one
#: tuple per mnemonic so a command unpacks them in one step
_FACTS = {
    mnemonic: (
        sig.arity,
        sig.reads,
        sig.dest,
        sig.payload,
        sig.distinct_sources,
        sig.in_place,
        sig.copies,
        bool(sig.sources),
        sig.reads_latch,
        sig.writes_latch,
    )
    for mnemonic, sig in ISA.items()
}


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
        #: per-subarray set of rows written so far (dataflow state)
        self._written: dict[tuple[int, ...], set[int]] = {}
        #: per-subarray "latch holds a known value" flag
        self._latch_known: dict[tuple[int, ...], bool] = {}
        #: per-subarray occupied k-mer slots inside the hashmap window
        self._inserted: dict[tuple[int, ...], set[int]] = {}
        self._in_hashmap = False
        self._in_scrub = False
        #: the layout's region ends (k-mer, value, temp rows), or None
        self._regions: tuple[int, int, int] | None = None
        if layout is not None:
            kmer_end = int(layout["kmer_rows"])
            value_end = kmer_end + int(layout["value_rows"])
            self._regions = (
                kmer_end,
                value_end,
                value_end + int(layout["temp_rows"]),
            )

    # ----- helpers ---------------------------------------------------------

    def _flag(self, rule: str, message: str, index: int | None = None) -> None:
        self.report.add(
            rule,
            message,
            source=self.source,
            location=self._index if index is None else index,
        )

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
        regions: tuple[int, int, int],
        mnemonic: str,
        sub: tuple[int, ...],
        copies: bool,
        computes: bool,
        des: int,
    ) -> None:
        kmer_rows, value_end, temp_end = regions
        if copies:
            if des < kmer_rows:
                slots = self._inserted.get(sub)
                if slots is None:
                    slots = self._inserted[sub] = set()
                if des in slots:
                    self._flag(
                        "V006",
                        f"{mnemonic} clobbers live k-mer slot row {des} of "
                        f"sub-array {sub} (already inserted this window)",
                    )
                slots.add(des)
            elif des < temp_end:
                region = "value" if des < value_end else "temp"
                self._flag(
                    "V006",
                    f"{mnemonic} copy into the {region} region (row {des}) "
                    f"of sub-array {sub} during the hashmap window",
                )
        elif computes:
            if des < self.data_rows:
                self._flag(
                    "V007",
                    f"{mnemonic} destination row {des} of sub-array {sub} "
                    f"is outside the designated compute rows "
                    f"[{self.data_rows}, {self.rows}) during the hashmap "
                    "window",
                )
        elif des < kmer_rows:
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
        findings = self.report.findings
        before = len(findings)
        self._check(mnemonic, tuple(subarray), rows, payload)
        self._index += 1
        return len(findings) - before

    def _check(
        self,
        mnemonic: str,
        sub: tuple[int, ...],
        rows: tuple[int, ...],
        payload: tuple[int, ...] | None,
    ) -> None:
        facts = _FACTS.get(mnemonic)
        if facts is None:
            self._flag("V001", f"unknown mnemonic {mnemonic!r}")
            return
        (
            arity,
            reads,
            dest,
            payload_kind,
            distinct,
            in_place,
            copies,
            computes,
            reads_latch,
            writes_latch,
        ) = facts
        if len(rows) not in arity:
            self._flag(
                "V002",
                f"{mnemonic} takes {' or '.join(map(str, arity))} row "
                f"operand(s), got {len(rows)}",
            )
            return
        nrows = self.rows
        for row in rows:
            if not 0 <= row < nrows:
                self._flag(
                    "V002",
                    f"{mnemonic} row {row} outside sub-array [0, {nrows}) at {sub}",
                )
                return
        if payload_kind != "none":
            fill = payload_kind == "fill"
            size = 1 if fill else self.cols
            # a count, not a set: no per-command set of the row's bits
            if (
                payload is None
                or len(payload) != size
                or payload.count(0) + payload.count(1) != size
            ):
                wanted = "one 0/1 fill value" if fill else f"{size} 0/1 bits"
                self._flag(
                    "V002",
                    f"{mnemonic} payload must be {wanted}, "
                    f"got {reprlib.repr(payload)}",
                )
        sources = rows[reads]
        des = None if dest is None else rows[dest]
        repeated = distinct and len(set(sources)) != len(sources)
        if repeated:
            self._flag(
                "V002", f"{mnemonic} requires distinct source rows, got {sources}"
            )
        clobbered = des in sources and not in_place
        if clobbered and copies:
            self._flag(
                "V002",
                f"{mnemonic} with src == des (row {des}) is a dead command "
                "(RowClone onto itself)",
            )
        elif clobbered:
            self._flag(
                "V005",
                f"{mnemonic} destination row {des} is an activated source — "
                "missing precharge between activations",
            )
        if self.check_dataflow:
            if reads_latch and not self._latch_known.get(sub, False):
                self._flag(
                    "V004",
                    f"{mnemonic} on sub-array {sub} consumes the carry latch "
                    "before any LATCH_LD/TRA/LATCH_CLR set it",
                )
            written = self._written.get(sub)
            if written is None:
                written = self._written[sub] = set()
            if sources and not (clobbered and copies):
                # data rows hold pre-existing content unless the stream
                # starts cold; compute rows behind the modified decoder
                # always start undefined
                preloaded = 0 if self.cold_start else self.data_rows
                for row in dict.fromkeys(sources) if repeated else sources:
                    if row >= preloaded and row not in written:
                        self._flag(
                            "V003",
                            f"{mnemonic} reads uninitialised row {row} of "
                            f"sub-array {sub}",
                        )
            if des is not None and not clobbered:
                written.add(des)
        if writes_latch:
            self._latch_known[sub] = True
        regions = self._regions
        if (
            des is not None
            and regions is not None
            and self._in_hashmap
            and not self._in_scrub
        ):
            self._layout_rules(regions, mnemonic, sub, copies, computes, des)

    def feed_entry(self, entry: TraceEntry) -> int:
        return self.feed(entry.mnemonic, entry.subarray, entry.rows, entry.payload)

    def _feed_trace(self, trace: CommandTrace) -> None:
        """Feed a recorded trace, each window mark at its position."""
        check = self._check
        for run, label in _runs(trace):
            for entry in run:
                check(entry.mnemonic, entry.subarray, entry.rows, entry.payload)
                self._index += 1
            if label is not None:
                self.feed_mark(label)

    def finish(self) -> FindingReport:
        return self.report


def _runs(trace: CommandTrace) -> Iterator[tuple[list[TraceEntry], str | None]]:
    """The entries between window marks, each run with the mark that
    closes it (``None`` after the last run).  A mark at position ``p``
    comes before entry ``p``; equal positions keep their recorded order."""
    entries = trace.entries()
    start = 0
    for position, label in sorted(trace.marks, key=lambda m: m[0]):
        stop = max(start, position)
        yield entries[start:stop], label
        start = stop
    yield entries[start:], None


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
        for name in ISA[mnemonic].resources:
            resource = resource_key(name, sub)
            busy[resource] = busy.get(resource, 0.0) + time_ns
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
    makespan = max(busy.values(), default=0.0)
    for wrong, message in (
        (
            not _close(serial_rec, serial),
            f"records serial {serial_rec:.3f} ns, charges sum to {serial:.3f} ns",
        ),
        (
            not _close(makespan_rec, makespan),
            f"records makespan {makespan_rec:.3f} ns, busiest resource is "
            f"{makespan:.3f} ns",
        ),
        (
            makespan_rec > serial_rec + _ABS_TOL,
            f"has makespan {makespan_rec:.3f} ns exceeding serial time "
            f"{serial_rec:.3f} ns (non-monotone timing)",
        ),
        (
            commands_rec != commands,
            f"records {commands_rec} commands, charges sum to {commands}",
        ),
    ):
        if wrong:
            report.add(
                "C004", f"flush at charge #{at} {message}", source=source, location=at
            )


def _verify_accounting(
    doc: TraceDocument, report: FindingReport, source: str
) -> None:
    """Ledger-side rules V008/V009 for complete scalar documents."""
    ledger = doc.ledger or {}
    counts = dict(ledger.get("commands") or {})
    if not counts:
        return
    if any(m.startswith("VRF_") for m in counts):
        # verified runs recharge retried ops without re-tracing them;
        # count/time folding is only exact for unverified streams
        return
    timing = doc.timing_parameters()
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

    # the ledger charges each traced program command under its table
    # name; the refresh/ECC stream is charged without being traced
    program = {m: sig for m, sig in ISA.items() if sig.program}
    expected = ledger_counts(Counter(e.mnemonic for e in doc.trace))
    for name in sorted({sig.ledger for sig in program.values() if sig.ledger}):
        if counts.get(name, 0) != expected[name]:
            report.add(
                "V009",
                f"ledger counts {counts.get(name, 0)} {name} but the trace "
                f"holds {expected[name]} command(s) charged as {name}",
                source=source,
            )
    for mnemonic in sorted(counts.keys() & program.keys()):
        charged_as = program[mnemonic].ledger
        if charged_as != mnemonic:
            report.add(
                "V009",
                f"{mnemonic} is charged as {charged_as or 'nothing'}, so the "
                "ledger must not count it under its own name",
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
    verifier._feed_trace(doc.trace)
    verifier.finish()
    verify_charges(
        doc.trace, doc.timing_parameters(), report, source=f"{source}#charges"
    )
    if doc.complete:
        _verify_accounting(doc, report, source=source)
    return report
