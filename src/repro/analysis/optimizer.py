"""Translation-validated peephole optimisation of AAP command streams.

Recorded AAP programs carry systematic redundancy: the compare-scan
stages copies operands onto compute staging rows before every XNOR
activation (copy chains through ``AAP1``), overwritten rows keep their
earlier dead writes, and precharge-style ``ROW_INIT``/``LATCH_CLR``
commands repeat with nothing in between.  This module rewrites such
streams with four classic peephole passes:

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
    already cleared — the repeated-precharge peephole;
``gang_merge_pass``
    reorders commands *across* sub-arrays (never within one) inside
    mark-delimited segments so runs of identical two-row activations on
    distinct sub-arrays become gang-issuable slots, recorded in
    ``meta["gangs"]`` for the batched replay path.

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

import dataclasses
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from repro.analysis.equiv import (
    GANGABLE_MNEMONICS,
    MODELLED_MNEMONICS,
    check_equivalence,
    stream_cost,
)
from repro.analysis.findings import FindingReport, Severity
from repro.analysis.tracefile import TraceDocument
from repro.analysis.verifier import _doc_timing, _iter_with_marks, verify_document
from repro.core.timing import command_cost_table
from repro.core.trace import CommandTrace, TraceEntry

__all__ = [
    "DEFAULT_PASSES",
    "OptimizationResult",
    "PassStats",
    "TraceOptimizer",
    "copy_propagation_pass",
    "dead_write_pass",
    "gang_merge_pass",
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
# command effect model
# --------------------------------------------------------------------------

_SOURCE_POSITIONS = {
    "AAP1": (0,),
    "AAP2": (0, 1),
    "AAP3": (0, 1, 2),
    "SUM": (0, 1),
    "LATCH_LD": (0,),
}


def _effects(
    entry: TraceEntry,
) -> tuple[tuple[int, ...], tuple[int, ...], bool, bool, bool]:
    """``(reads, writes, reads_latch, writes_latch, observation)``."""
    m = entry.mnemonic
    rows = entry.rows
    if m == "AAP1":
        return (rows[0],), (rows[1],), False, False, False
    if m == "AAP2":
        return rows[:2], (rows[2],), False, False, False
    if m == "AAP3":
        return rows[:3], (rows[3],), False, True, False
    if m == "SUM":
        return rows[:2], (rows[2],), True, False, False
    if m == "LATCH_LD":
        return (rows[0],), (), False, True, False
    if m == "LATCH_CLR":
        return (), (), False, True, False
    if m == "ROW_INIT":
        return (), (rows[0],), False, False, False
    if m == "MEM_WR":
        return (), (rows[0],), False, False, False
    if m == "MEM_RD":
        return (rows[0],), (), False, False, True
    if m == "DPU":
        return rows[:1], (), False, False, True
    raise ValueError(f"unmodelled mnemonic {m!r}")


def _operands_valid(mnemonic: str, rows: Sequence[int]) -> bool:
    """The ISA/verifier operand constraints a rewrite must preserve."""
    if mnemonic == "AAP1":
        return rows[0] != rows[1]
    if mnemonic in ("AAP2", "SUM"):
        return rows[0] != rows[1] and rows[2] not in (rows[0], rows[1])
    if mnemonic == "AAP3":
        return len({rows[0], rows[1], rows[2]}) == 3
    return True


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
        reads, writes, rlatch, wlatch, obs = _effects(entry)
        sub = entry.subarray
        dead = dead_rows.setdefault(sub, set())
        if not obs and (writes or wlatch):
            removable = all(w in dead for w in writes) and (
                not wlatch or dead_latch.get(sub, False)
            )
            if removable and (writes or wlatch):
                removed += 1
                justifications.append(
                    {
                        "action": "remove",
                        "op": entry.mnemonic,
                        "sub": list(sub),
                        "rows": list(entry.rows),
                        "reason": "every written row/latch value is "
                        "overwritten before any read",
                    }
                )
                continue
        for w in writes:
            dead.add(w)
        if wlatch:
            dead_latch[sub] = True
        for r in reads:
            dead.discard(r)
        if rlatch:
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
    version: dict[tuple, Counter] = {}
    copies: dict[tuple, dict[int, tuple[int, int, int]]] = {}
    out: list[Token] = []
    justifications: list[dict] = []
    rewritten = 0

    for token in tokens:
        if token[0] != "entry":
            out.append(token)
            continue
        entry: TraceEntry = token[1]
        sub = entry.subarray
        ver = version.setdefault(sub, Counter())
        alias = copies.setdefault(sub, {})

        def resolve(row: int) -> int:
            seen = {row}
            while row in alias:
                src, src_ver, des_ver = alias[row]
                if ver[row] != des_ver or ver[src] != src_ver or src in seen:
                    break
                row = src
                seen.add(row)
            return row

        positions = _SOURCE_POSITIONS.get(entry.mnemonic, ())
        new_rows = list(entry.rows)
        for pos in positions:
            candidate = resolve(new_rows[pos])
            if candidate == new_rows[pos]:
                continue
            tentative = list(new_rows)
            tentative[pos] = candidate
            if not _operands_valid(entry.mnemonic, tentative):
                continue
            justifications.append(
                {
                    "action": "rewrite",
                    "op": entry.mnemonic,
                    "sub": list(sub),
                    "operand": pos,
                    "from": new_rows[pos],
                    "to": candidate,
                    "reason": "row holds an AAP1 copy of the substituted "
                    "row (both versions unchanged since the copy)",
                }
            )
            new_rows = tentative
            rewritten += 1
        if new_rows != list(entry.rows):
            entry = dataclasses.replace(entry, rows=tuple(new_rows))

        _, writes, _, _, _ = _effects(entry)
        for w in writes:
            ver[w] += 1
            alias.pop(w, None)
        if entry.mnemonic == "AAP1":
            src, des = entry.rows
            alias[des] = (src, ver[src], ver[des])
        out.append(("entry", entry))

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
        consts = known_const.setdefault(sub, {})
        if entry.mnemonic == "ROW_INIT":
            fill = int(entry.payload[0]) if entry.payload else 0
            if consts.get(entry.rows[0]) == fill:
                removed += 1
                justifications.append(
                    {
                        "action": "remove",
                        "op": "ROW_INIT",
                        "sub": list(sub),
                        "rows": list(entry.rows),
                        "reason": f"row already holds constant {fill} from "
                        "an earlier surviving ROW_INIT",
                    }
                )
                continue
            consts[entry.rows[0]] = fill
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
        _, writes, _, wlatch, _ = _effects(entry)
        for w in writes:
            consts.pop(w, None)
        if wlatch:
            latch_clear[sub] = False
        out.append(token)
    return out, PassStats(
        name="redundant_init",
        removed=removed,
        justifications=tuple(justifications),
    )


DEFAULT_PASSES: tuple[Callable[[list[Token]], tuple[list[Token], PassStats]], ...] = (
    copy_propagation_pass,
    dead_write_pass,
    redundant_init_pass,
)


# --------------------------------------------------------------------------
# gang merge (scheduling pass — runs once, after the rewrite fixpoint)
# --------------------------------------------------------------------------


def gang_merge_pass(
    tokens: list[Token],
) -> tuple[list[Token], list[tuple[int, int]], PassStats]:
    """Deterministic cross-sub-array list scheduling into gang slots.

    Within each mark-delimited segment the pass keeps one FIFO queue
    per sub-array (per-sub program order is inviolable — that is the
    soundness argument: sub-arrays share no state, so any interleaving
    that preserves every per-sub order is equivalent) and repeatedly
    either emits a *gang* — the front commands of ≥ 2 queues sharing a
    gangable mnemonic (``AAP1``/``AAP2``), recorded as
    ``(start, length)`` — or drains one command from the longest
    queue.  The schedule is a pure function of the per-sub sequences,
    which makes the pass idempotent and insensitive to the incoming
    cross-sub interleaving.
    """
    out: list[Token] = []
    gangs: list[tuple[int, int]] = []
    entries_emitted = 0
    ganged = 0

    def flush_segment(segment: list[TraceEntry]) -> None:
        nonlocal entries_emitted, ganged
        queues: dict[tuple, deque] = {}
        for entry in segment:
            queues.setdefault(entry.subarray, deque()).append(entry)
        while queues:
            fronts: dict[str, list[tuple]] = {}
            for sub in queues:
                mnemonic = queues[sub][0].mnemonic
                if mnemonic in GANGABLE_MNEMONICS:
                    fronts.setdefault(mnemonic, []).append(sub)
            best = None
            if fronts:
                best = min(
                    fronts, key=lambda m: (-len(fronts[m]), m)
                )
            if best is not None and len(fronts[best]) >= 2:
                members = sorted(fronts[best])
                gangs.append((entries_emitted, len(members)))
                ganged += len(members)
                for sub in members:
                    out.append(("entry", queues[sub].popleft()))
                    entries_emitted += 1
                    if not queues[sub]:
                        del queues[sub]
            else:
                sub = min(queues, key=lambda s: (-len(queues[s]), s))
                out.append(("entry", queues[sub].popleft()))
                entries_emitted += 1
                if not queues[sub]:
                    del queues[sub]

    segment: list[TraceEntry] = []
    for token in tokens:
        if token[0] == "mark":
            flush_segment(segment)
            segment = []
            out.append(token)
        else:
            segment.append(token[1])
    flush_segment(segment)

    return (
        out,
        gangs,
        PassStats(
            name="gang_merge",
            rewritten=ganged,
            justifications=(
                {
                    "action": "gang",
                    "slots": len(gangs),
                    "commands": ganged,
                    "reason": "front commands of distinct sub-array queues "
                    "share a gangable mnemonic; per-sub order preserved",
                },
            )
            if gangs
            else (),
        ),
    )


# --------------------------------------------------------------------------
# document rebuild
# --------------------------------------------------------------------------


def _rebuild_trace(tokens: Iterable[Token]) -> CommandTrace:
    trace = CommandTrace()
    for kind, item in tokens:
        if kind == "mark":
            trace.mark(item)
        else:
            entry: TraceEntry = item
            trace.record(
                entry.mnemonic,
                entry.subarray,
                entry.rows,
                np.asarray(entry.payload, dtype=np.uint8)
                if entry.payload is not None
                else None,
            )
    return trace


def _recompute_ledger(
    doc: TraceDocument, trace: CommandTrace
) -> dict[str, Any] | None:
    """Ledger totals consistent with the rewritten stream.

    Mirrors the accounting the verifier enforces (V008/V009): the
    ``ROW_INIT`` trace entries fold into the ``AAP1`` charge (hardware
    issues them as RowClone off the constant row) and ``LATCH_CLR`` is
    a free precharge side effect that is never charged.  Energy is
    priced through the shared cost table with the default energy model
    (documents do not embed energy parameters).
    """
    if doc.ledger is None:
        return None
    from repro.core.energy import DEFAULT_ENERGY

    costs = command_cost_table(_doc_timing(doc), DEFAULT_ENERGY)
    counts: Counter = Counter()
    for entry in trace:
        counts[entry.mnemonic] += 1
    counts["AAP1"] += counts.pop("ROW_INIT", 0)
    counts.pop("LATCH_CLR", None)
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
        gang_merge: run the cross-sub-array gang scheduling pass after
            the rewrite fixpoint.
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
        gang_merge: bool = True,
        max_iterations: int = 8,
    ) -> None:
        self.passes = tuple(passes) if passes is not None else DEFAULT_PASSES
        self.verify_input = verify_input
        self.equivalence = equivalence
        self.gang_merge = gang_merge
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

        tokens: list[Token] = list(_iter_with_marks(doc))
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

        gangs: list[tuple[int, int]] = []
        if self.gang_merge:
            tokens, gangs, gang_stats = gang_merge_pass(tokens)
            pass_stats.append(gang_stats)

        optimized = self._build_document(doc, tokens, gangs, pass_stats)

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

        savings = self._savings(doc, optimized, gangs)
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
        return OptimizationResult(
            ok=True,
            document=doc,
            report=report,
            identity=True,
            savings=self._savings(doc, doc, []),
        )

    def _build_document(
        self,
        doc: TraceDocument,
        tokens: list[Token],
        gangs: list[tuple[int, int]],
        pass_stats: Sequence[PassStats],
    ) -> TraceDocument:
        trace = _rebuild_trace(tokens)
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
        if gangs:
            meta["gangs"] = [[start, length] for start, length in gangs]
        return TraceDocument(
            engine=doc.engine,
            trace=trace,
            charge_log=doc.charge_log,
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
        gangs: list[tuple[int, int]],
    ) -> dict[str, Any]:
        from repro.core.energy import DEFAULT_ENERGY

        timing = _doc_timing(original)
        before = stream_cost(original.trace, timing, DEFAULT_ENERGY)
        after = stream_cost(optimized.trace, timing, DEFAULT_ENERGY)

        def ratio(old: float, new: float) -> float:
            return (old - new) / old if old else 0.0

        return {
            "commands": {
                "before": before[0],
                "after": after[0],
                "reduction": ratio(before[0], after[0]),
            },
            "time_ns": {
                "before": before[1],
                "after": after[1],
                "reduction": ratio(before[1], after[1]),
            },
            "energy_nj": {
                "before": before[2],
                "after": after[2],
                "reduction": ratio(before[2], after[2]),
            },
            "gangs": {
                "slots": len(gangs),
                "commands": sum(length for _, length in gangs),
            },
        }


def optimize_document(
    doc: TraceDocument, source: str = "<trace>", **kwargs: Any
) -> OptimizationResult:
    """One-call optimisation with the default verified pipeline."""
    return TraceOptimizer(**kwargs).optimize(doc, source=source)
