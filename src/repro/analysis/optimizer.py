"""Translation-validated peephole optimisation of AAP command streams.

Recorded AAP programs carry systematic redundancy: the compare-scan
stages copies operands onto compute staging rows before every XNOR
activation (copy chains through ``AAP1``), overwritten rows keep their
earlier dead writes, and precharge-style ``ROW_INIT``/``LATCH_CLR``
commands repeat with nothing in between.  This module rewrites such
streams with three classic peephole passes:

``copy_propagation_pass``
    forwards activation source operands through ``AAP1`` copy chains
    (version-checked, so a clobbered source or destination invalidates
    the chain) — legal because the designated-row rules (V006/V007)
    constrain *destinations* only;
``dead_write_pass``
    backward liveness over rows *and* the carry latch; removes writes
    whose value is overwritten before any read (the final state of
    every row and latch is live by definition);
``redundant_init_pass``
    removes a ``ROW_INIT`` re-asserting a fill value the row is
    already known to hold, and a ``LATCH_CLR`` when the latch is
    already cleared — the repeated-precharge peephole.

Each command's reads, writes and latch effects, and the operand rules a
rewrite must keep, come from the instruction table
:data:`repro.core.isa.ISA`.  The passes only remove or rewrite
commands; they never reorder them.
Cross-sub-array parallelism is priced by the batched scheduler
(:func:`repro.core.scheduler.charge_stream`), which coalesces the
stream per sub-array whatever its interleaving.

None of this is trusted: every optimisation emits machine-checkable
justifications into ``meta["aap_opt"]``, and the rewritten document is
independently re-judged by :func:`repro.analysis.equiv.check_equivalence`
(symbolic row-state lattice) before it is accepted.  A rewrite the
judge cannot prove equivalent is *rejected*, not shipped.

Rule catalogue (optimiser-side; E0xx rules live in ``equiv``):

=====  ===================================================================
O001   partial (bulk-engine) document — the stream is not a complete
       program, optimisation degrades to identity (warning)
O002   input stream has verifier findings — refusing to optimise a
       program that is already broken
O003   stream carries unmodelled mnemonics (``REF``/``ECC_*``) —
       optimisation degrades to identity (warning)
=====  ===================================================================
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.analysis.equiv import MODELLED_MNEMONICS, check_equivalence, stream_cost
from repro.analysis.findings import FindingReport, Severity
from repro.analysis.tracefile import TraceDocument
from repro.analysis.verifier import _runs, verify_document
from repro.core.isa import ISA, ledger_counts
from repro.core.timing import command_cost_table
from repro.core.trace import CommandTrace, TraceEntry

__all__ = [
    "DEFAULT_PASSES",
    "OptimizationResult",
    "PassStats",
    "TraceOptimizer",
    "copy_propagation_pass",
    "dead_write_pass",
    "optimize_document",
    "redundant_init_pass",
]

#: a token is ("mark", label) or ("entry", TraceEntry) — passes work on
#: the merged stream so window marks keep their positions through
#: removals
Token = tuple[str, Any]

#: cap on justification records embedded in the output document's meta
#: (counts are always exact; the records are a sample for audit)
_MAX_META_JUSTIFICATIONS = 50


@dataclass(frozen=True)
class PassStats:
    """What one pass execution did, with per-rewrite justifications."""

    name: str
    removed: int = 0
    rewritten: int = 0
    justifications: tuple[dict, ...] = ()


@dataclass
class OptimizationResult:
    """Outcome of one :meth:`TraceOptimizer.optimize` run.

    ``ok`` means the result document is safe to use: either a proven-
    equivalent rewrite or an explicit identity (O001/O003).  When the
    equivalence judge rejects a rewrite, ``ok`` is False, ``document``
    is the untouched original and the refuted stream is preserved in
    ``rejected`` for debugging.
    """

    ok: bool
    document: TraceDocument
    report: FindingReport
    identity: bool = False
    passes: list[PassStats] = field(default_factory=list)
    iterations: int = 0
    savings: dict[str, Any] = field(default_factory=dict)
    rejected: TraceDocument | None = None


# --------------------------------------------------------------------------
# rewrite passes (token stream -> token stream, order-preserving)
# --------------------------------------------------------------------------


def dead_write_pass(tokens: list[Token]) -> tuple[list[Token], PassStats]:
    """Backward liveness: drop writes overwritten before any read.

    Tracks, per sub-array, the set of rows whose *current* value is
    provably dead (overwritten later with no intervening read) plus a
    dead flag for the carry latch.  Both start empty/live at stream end
    — the equivalence obligations make every final row and latch an
    observable, so a trailing write is never removable.
    """
    dead_rows: dict[tuple, set[int]] = {}
    dead_latch: dict[tuple, bool] = {}
    kept_reversed: list[Token] = []
    justifications: list[dict] = []
    removed = 0
    for token in reversed(tokens):
        if token[0] != "entry":
            kept_reversed.append(token)
            continue
        entry: TraceEntry = token[1]
        sig = ISA[entry.mnemonic]
        rows = entry.rows
        writes = rows[sig.writes]
        wlatch = sig.writes_latch
        sub = entry.subarray
        dead = dead_rows.get(sub)
        if dead is None:
            dead = dead_rows[sub] = set()
        if not sig.observation and (writes or wlatch):
            removable = dead.issuperset(writes) and (
                not wlatch or dead_latch.get(sub, False)
            )
            if removable:
                removed += 1
                justifications.append(
                    {
                        "action": "remove",
                        "op": entry.mnemonic,
                        "sub": list(sub),
                        "rows": list(rows),
                        "reason": "every written row/latch value is "
                        "overwritten before any read",
                    }
                )
                continue
        dead.update(writes)
        if wlatch:
            dead_latch[sub] = True
        dead.difference_update(rows[sig.reads])
        if sig.reads_latch:
            dead_latch[sub] = False
        kept_reversed.append(token)
    kept_reversed.reverse()
    return kept_reversed, PassStats(
        name="dead_write",
        removed=removed,
        justifications=tuple(justifications),
    )


def copy_propagation_pass(
    tokens: list[Token],
) -> tuple[list[Token], PassStats]:
    """Forward activation sources through ``AAP1`` copy chains.

    For every ``AAP1 src -> des`` the pass remembers ``des`` as an
    alias of ``src`` at their current row versions; a later activation
    reading ``des`` is rewritten to read ``src`` directly while both
    versions still hold.  Observations (``MEM_RD``/``DPU``) are never
    rewritten — the observed row is part of the observation.  Each
    operand rewrite is validated against the ISA constraints (distinct
    sources, destination not an activated source) and skipped when the
    substitution would violate them.
    """
    #: per sub-array: (row -> version, des -> (src, src ver, des ver))
    state: dict[tuple, tuple[dict[int, int], dict[int, tuple[int, int, int]]]] = {}
    out: list[Token] = []
    justifications: list[dict] = []
    rewritten = 0

    for token in tokens:
        if token[0] != "entry":
            out.append(token)
            continue
        entry: TraceEntry = token[1]
        sub = entry.subarray
        sub_state = state.get(sub)
        if sub_state is None:
            sub_state = state[sub] = ({}, {})
        ver, alias = sub_state
        sig = ISA[entry.mnemonic]
        rows = entry.rows
        # an observed row is part of the observation: never rewritten;
        # only an operand with a live alias can resolve anywhere else
        if alias and not sig.observation:
            new_rows = None
            for pos in sig.sources:
                row = rows[pos] if new_rows is None else new_rows[pos]
                if row not in alias:
                    continue
                candidate = _resolve(row, alias, ver)
                if candidate == row:
                    continue
                tentative = list(rows if new_rows is None else new_rows)
                tentative[pos] = candidate
                if not sig.operands_valid(tentative):
                    continue
                justifications.append(
                    {
                        "action": "rewrite",
                        "op": entry.mnemonic,
                        "sub": list(sub),
                        "operand": pos,
                        "from": row,
                        "to": candidate,
                        "reason": "row holds an AAP1 copy of the substituted "
                        "row (both versions unchanged since the copy)",
                    }
                )
                new_rows = tentative
                rewritten += 1
            if new_rows is not None:
                rows = tuple(new_rows)
                entry = TraceEntry(
                    entry.index, entry.mnemonic, sub, rows, entry.payload
                )
                token = ("entry", entry)

        writes = rows[sig.writes]
        for w in writes:
            ver[w] = ver.get(w, 0) + 1
            alias.pop(w, None)
        if sig.copies:
            (src,), (des,) = rows[sig.reads], writes
            alias[des] = (src, ver.get(src, 0), ver[des])
        out.append(token)

    return out, PassStats(
        name="copy_propagation",
        rewritten=rewritten,
        justifications=tuple(justifications),
    )


def redundant_init_pass(
    tokens: list[Token],
) -> tuple[list[Token], PassStats]:
    """Drop precharges that re-assert already-established state.

    A ``ROW_INIT`` filling a row with the constant it is already known
    to hold (from an earlier surviving ``ROW_INIT``) is a repeated
    precharge; so is a ``LATCH_CLR`` on an already-cleared latch.  Any
    other write to the row (or latch load/TRA) invalidates the
    known-state fact.
    """
    known_const: dict[tuple, dict[int, int]] = {}
    latch_clear: dict[tuple, bool] = {}
    out: list[Token] = []
    justifications: list[dict] = []
    removed = 0
    for token in tokens:
        if token[0] != "entry":
            out.append(token)
            continue
        entry: TraceEntry = token[1]
        sub = entry.subarray
        consts = known_const.get(sub)
        if consts is None:
            consts = known_const[sub] = {}
        sig = ISA[entry.mnemonic]
        writes = entry.rows[sig.writes]
        if sig.payload == "fill":
            (row,) = writes
            fill = int(entry.payload[0]) if entry.payload else 0
            if consts.get(row) == fill:
                removed += 1
                justifications.append(
                    {
                        "action": "remove",
                        "op": entry.mnemonic,
                        "sub": list(sub),
                        "rows": list(entry.rows),
                        "reason": f"row already holds constant {fill} from "
                        "an earlier surviving ROW_INIT",
                    }
                )
                continue
            consts[row] = fill
            out.append(token)
            continue
        if entry.mnemonic == "LATCH_CLR":
            if latch_clear.get(sub, False):
                removed += 1
                justifications.append(
                    {
                        "action": "remove",
                        "op": "LATCH_CLR",
                        "sub": list(sub),
                        "rows": [],
                        "reason": "latch already cleared by an earlier "
                        "surviving LATCH_CLR",
                    }
                )
                continue
            latch_clear[sub] = True
            out.append(token)
            continue
        for w in writes:
            consts.pop(w, None)
        if sig.writes_latch:
            latch_clear[sub] = False
        out.append(token)
    return out, PassStats(
        name="redundant_init",
        removed=removed,
        justifications=tuple(justifications),
    )


def _resolve(
    row: int, alias: dict[int, tuple[int, int, int]], ver: dict[int, int]
) -> int:
    """The row ``row`` is a still-valid copy of, following the chain."""
    seen = {row}
    while row in alias:
        src, src_ver, des_ver = alias[row]
        if ver.get(row, 0) != des_ver or ver.get(src, 0) != src_ver or src in seen:
            break
        row = src
        seen.add(row)
    return row


DEFAULT_PASSES: tuple[Callable[[list[Token]], tuple[list[Token], PassStats]], ...] = (
    copy_propagation_pass,
    dead_write_pass,
    redundant_init_pass,
)


# --------------------------------------------------------------------------
# document rebuild
# --------------------------------------------------------------------------


def _rebuild_trace(tokens: Iterable[Token], source: CommandTrace) -> CommandTrace:
    """The rewritten stream; the source's scheduler charges carry over.

    Kept entries are appended renumbered, their payload tuples reused.
    """
    trace = source.charges_only()
    mark, append = trace.mark, trace.append
    for kind, item in tokens:
        if kind == "mark":
            mark(item)
        else:
            append(item)
    return trace


def _recompute_ledger(
    doc: TraceDocument, trace: CommandTrace
) -> dict[str, Any] | None:
    """Ledger totals consistent with the rewritten stream.

    Mirrors the accounting the verifier enforces (V008/V009): each
    command is charged under its :data:`~repro.core.isa.ISA` ledger
    name (:func:`~repro.core.isa.ledger_counts`).  Energy is
    priced through the shared cost table with the default energy model
    (documents do not embed energy parameters).
    """
    if doc.ledger is None:
        return None
    from repro.core.energy import DEFAULT_ENERGY

    costs = command_cost_table(doc.timing_parameters(), DEFAULT_ENERGY)
    counts = ledger_counts(Counter(entry.mnemonic for entry in trace))
    time_ns = 0.0
    energy_nj = 0.0
    for mnemonic, count in counts.items():
        t, e = costs[mnemonic]
        time_ns += count * t
        energy_nj += count * e
    return {
        "time_ns": time_ns,
        "energy_nj": energy_nj,
        "commands": {m: int(c) for m, c in sorted(counts.items()) if c},
    }


def _truncated(justifications: Sequence[dict]) -> list[dict]:
    return list(justifications[:_MAX_META_JUSTIFICATIONS])


# --------------------------------------------------------------------------
# the optimiser
# --------------------------------------------------------------------------


class TraceOptimizer:
    """Verified peephole pipeline over one trace document.

    Args:
        passes: rewrite passes to iterate to fixpoint (defaults to
            :data:`DEFAULT_PASSES`); injectable so tests can force an
            individual pass to misfire and watch the judge reject it.
        verify_input: refuse (O002) inputs that already carry verifier
            findings — an optimiser must not launder a broken program.
        equivalence: run the symbolic equivalence judge over the
            rewrite; on refutation the original document is returned
            (``ok=False``) with the refuted stream in ``rejected``.
        max_iterations: fixpoint iteration cap (each iteration runs
            every rewrite pass once).
    """

    def __init__(
        self,
        passes: Sequence[
            Callable[[list[Token]], tuple[list[Token], PassStats]]
        ]
        | None = None,
        verify_input: bool = True,
        equivalence: bool = True,
        max_iterations: int = 8,
    ) -> None:
        self.passes = tuple(passes) if passes is not None else DEFAULT_PASSES
        self.verify_input = verify_input
        self.equivalence = equivalence
        self.max_iterations = max_iterations

    def optimize(
        self, doc: TraceDocument, source: str = "<trace>"
    ) -> OptimizationResult:
        report = FindingReport()

        if not doc.complete:
            report.add(
                "O001",
                f"{doc.engine} document carries a partial command stream "
                "(complete=false) — not a program; returning it unchanged",
                source=source,
                severity=Severity.WARNING,
            )
            return self._identity(doc, report)

        unmodelled = sorted(
            {e.mnemonic for e in doc.trace} - MODELLED_MNEMONICS
        )
        if unmodelled:
            report.add(
                "O003",
                f"stream carries unmodelled mnemonic(s) {unmodelled} — "
                "the equivalence judge has no semantics for them; "
                "returning the document unchanged",
                source=source,
                severity=Severity.WARNING,
            )
            return self._identity(doc, report)

        if self.verify_input:
            input_report = verify_document(doc, source=source)
            if not input_report.ok:
                report.add(
                    "O002",
                    f"input stream has {len(input_report.errors())} "
                    "verifier finding(s); refusing to optimise a broken "
                    "program",
                    source=source,
                )
                report.extend(input_report)
                return OptimizationResult(
                    ok=False, document=doc, report=report, identity=True
                )

        tokens: list[Token] = []
        for run, label in _runs(doc.trace):
            tokens += [("entry", entry) for entry in run]
            if label is not None:
                tokens.append(("mark", label))
        pass_stats: list[PassStats] = []
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            changed = False
            for rewrite in self.passes:
                tokens, stats = rewrite(tokens)
                pass_stats.append(stats)
                if stats.removed or stats.rewritten:
                    changed = True
            if not changed:
                break

        optimized = self._build_document(doc, tokens, pass_stats)

        if self.equivalence:
            verdict = check_equivalence(doc, optimized, source=source)
            report.extend(verdict)
            if not verdict.ok:
                return OptimizationResult(
                    ok=False,
                    document=doc,
                    report=report,
                    identity=True,
                    passes=pass_stats,
                    iterations=iterations,
                    rejected=optimized,
                )

        savings = self._savings(doc, optimized)
        return OptimizationResult(
            ok=True,
            document=optimized,
            report=report,
            identity=False,
            passes=pass_stats,
            iterations=iterations,
            savings=savings,
        )

    # ----- helpers ---------------------------------------------------------

    def _identity(
        self, doc: TraceDocument, report: FindingReport
    ) -> OptimizationResult:
        # a mnemonic outside the instruction table has no price
        priced = all(entry.mnemonic in ISA for entry in doc.trace)
        return OptimizationResult(
            ok=True,
            document=doc,
            report=report,
            identity=True,
            savings=self._savings(doc, doc) if priced else {},
        )

    def _build_document(
        self,
        doc: TraceDocument,
        tokens: list[Token],
        pass_stats: Sequence[PassStats],
    ) -> TraceDocument:
        trace = _rebuild_trace(tokens, doc.trace)
        # "gangs" held the slot annotations of a retired scheduling
        # pass; older optimised documents still carry them
        meta = {
            k: v for k, v in doc.meta.items() if k not in ("aap_opt", "gangs")
        }
        total_just = sum(len(s.justifications) for s in pass_stats)
        meta["aap_opt"] = {
            "passes": [
                {
                    "name": s.name,
                    "removed": s.removed,
                    "rewritten": s.rewritten,
                }
                for s in pass_stats
            ],
            "justifications": _truncated(
                [j for s in pass_stats for j in s.justifications]
            ),
            "justifications_total": total_just,
            "justifications_truncated": total_just
            > _MAX_META_JUSTIFICATIONS,
        }
        return TraceDocument(
            engine=doc.engine,
            trace=trace,
            geometry=dict(doc.geometry),
            layout=dict(doc.layout) if doc.layout is not None else None,
            timing=dict(doc.timing) if doc.timing is not None else None,
            ledger=_recompute_ledger(doc, trace),
            complete=doc.complete,
            cold_start=doc.cold_start,
            meta=meta,
        )

    def _savings(
        self,
        original: TraceDocument,
        optimized: TraceDocument,
    ) -> dict[str, Any]:
        from repro.core.energy import DEFAULT_ENERGY

        timing = original.timing_parameters()
        before = stream_cost(original.trace, timing, DEFAULT_ENERGY)
        after = stream_cost(optimized.trace, timing, DEFAULT_ENERGY)

        return {
            name: {
                "before": old,
                "after": new,
                "reduction": (old - new) / old if old else 0.0,
            }
            for name, old, new in zip(("commands", "time_ns", "energy_nj"), before, after)
        }


def optimize_document(
    doc: TraceDocument, source: str = "<trace>", **kwargs: Any
) -> OptimizationResult:
    """One-call optimisation with the default verified pipeline."""
    return TraceOptimizer(**kwargs).optimize(doc, source=source)
