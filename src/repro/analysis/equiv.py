"""Symbolic observational-equivalence checking of AAP command streams.

The trace optimiser (:mod:`repro.analysis.optimizer`) rewrites recorded
command streams; this module is the independent judge that makes those
rewrites trustworthy by construction.  It never looks at *how* a stream
was rewritten — it abstractly interprets the original and the optimised
stream over a symbolic row-state lattice and demands that every
observable agrees:

* **observations** — the per-sub-array sequence of host reads
  (``MEM_RD``) and DPU operations, with the symbolic value of the row
  each one observes, must match exactly;
* **final row contents** — every row of every sub-array must hold the
  same symbolic value after both streams;
* **latch outputs** — each sub-array's carry latch must end in the same
  symbolic state;
* **charge accounting** — the optimised stream's command count, serial
  time and energy may only ever be *reduced*.

The lattice element is a hash-consed provenance term: ``("init", sub,
row)`` for pre-existing content, ``("const", v)`` for a ``ROW_INIT``
fill, ``("data", bits)`` for a host write, and ``("xnor", ...)`` /
``("maj", ...)`` / ``("xor3", ...)`` application terms with canonically
sorted operands (the SA ops are commutative).  Terms are interned in
one shared table so equality is integer identity, and structurally
equal values produced through different copy chains collapse to the
same id — which is exactly what lets copy propagation discharge its
obligation.

Cross-sub-array command order is deliberately *not* an observable:
sub-arrays are architecturally independent (the whole point of gang
issue), each sub-array's own program order is preserved, and the
per-MAT global row buffer is a transient staging resource whose final
content no modelled operation reads.

Rule catalogue (reported through the shared findings model):

=====  ===================================================================
E001   final row contents differ on some row of some sub-array
E002   observation sequence mismatch (kind, row, or observed value)
E003   final carry-latch state differs on some sub-array
E004   charge totals increased (command count, serial time or energy)
E006   document envelope mismatch (engine, geometry, layout, timing,
       completeness or cold-start flags differ)
E007   unmodelled mnemonic — the interpreter cannot prove anything
       about streams carrying integrity commands (``REF``/``ECC_*``)
=====  ===================================================================

E005 is retired (it validated the gang-slot annotations of a removed
optimiser pass); the other rules keep their numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.findings import FindingReport
from repro.analysis.tracefile import TraceDocument
from repro.core.timing import TimingParameters, command_cost_table
from repro.core.trace import CommandTrace, TraceEntry

__all__ = [
    "MODELLED_MNEMONICS",
    "Interner",
    "SubSummary",
    "SymbolicInterpreter",
    "UnmodelledMnemonicError",
    "check_equivalence",
    "interpret_trace",
    "stream_cost",
]

#: mnemonics the symbolic interpreter gives exact semantics to — the
#: full AAP program vocabulary; the integrity stream (``REF``/``ECC_*``)
#: mutates rows in ways the lattice does not model.
MODELLED_MNEMONICS = frozenset(
    {
        "AAP1",
        "AAP2",
        "AAP3",
        "SUM",
        "LATCH_LD",
        "LATCH_CLR",
        "ROW_INIT",
        "MEM_WR",
        "MEM_RD",
        "DPU",
    }
)

SubKey = tuple[int, int, int]
Observation = tuple[str, int | None, int | None]


class UnmodelledMnemonicError(ValueError):
    """A stream contains a mnemonic outside the modelled vocabulary."""

    def __init__(self, mnemonic: str, index: int) -> None:
        super().__init__(
            f"command #{index}: mnemonic {mnemonic!r} is outside the "
            "symbolic interpreter's vocabulary"
        )
        self.mnemonic = mnemonic
        self.index = index


class Interner:
    """Hash-consing table: structurally equal terms share one id.

    Compound terms reference child *ids*, so deep provenance trees stay
    flat tuples and value equality is a single integer comparison.
    """

    def __init__(self) -> None:
        self._ids: dict[tuple[Any, ...], int] = {}

    def intern(self, term: tuple[Any, ...]) -> int:
        found = self._ids.get(term)
        if found is None:
            found = len(self._ids)
            self._ids[term] = found
        return found

    def __len__(self) -> int:
        return len(self._ids)


@dataclass
class SubSummary:
    """Everything observable about one sub-array after a stream."""

    rows: dict[int, int] = field(default_factory=dict)
    latch: int = -1
    observations: list[Observation] = field(default_factory=list)


class SymbolicInterpreter:
    """Abstract interpreter over the provenance lattice.

    One interpreter instance may run many streams against a *shared*
    :class:`Interner`; value ids are then comparable across runs —
    which is how :func:`check_equivalence` uses it.
    """

    def __init__(self, interner: Interner | None = None) -> None:
        self.interner = interner if interner is not None else Interner()

    def run(self, trace: CommandTrace) -> dict[SubKey, SubSummary]:
        """Interpret a stream; returns per-sub-array summaries.

        Raises:
            UnmodelledMnemonicError: on a mnemonic outside
                :data:`MODELLED_MNEMONICS`.
        """
        intern = self.interner.intern
        subs: dict[SubKey, SubSummary] = {}
        for entry in trace:
            sub = subs.get(entry.subarray)
            if sub is None:
                sub = subs[entry.subarray] = SubSummary(
                    latch=intern(("latch0", entry.subarray))
                )
            self._step(entry, sub, intern)
        return subs

    def _step(
        self, entry: TraceEntry, sub: SubSummary, intern: Any
    ) -> None:
        mnemonic = entry.mnemonic
        rows = entry.rows
        key = entry.subarray
        state = sub.rows

        if mnemonic == "AAP1":
            state[rows[1]] = _value(state, key, rows[0], intern)
        elif mnemonic == "AAP2":
            operands = sorted(
                (
                    _value(state, key, rows[0], intern),
                    _value(state, key, rows[1], intern),
                )
            )
            state[rows[2]] = intern(("xnor", *operands))
        elif mnemonic == "AAP3":
            operands = sorted(
                (
                    _value(state, key, rows[0], intern),
                    _value(state, key, rows[1], intern),
                    _value(state, key, rows[2], intern),
                )
            )
            majority = intern(("maj", *operands))
            state[rows[3]] = majority
            sub.latch = majority
        elif mnemonic == "SUM":
            operands = sorted(
                (
                    _value(state, key, rows[0], intern),
                    _value(state, key, rows[1], intern),
                    sub.latch,
                )
            )
            state[rows[2]] = intern(("xor3", *operands))
        elif mnemonic == "LATCH_LD":
            sub.latch = _value(state, key, rows[0], intern)
        elif mnemonic == "LATCH_CLR":
            sub.latch = intern(("const", 0))
        elif mnemonic == "ROW_INIT":
            fill = int(entry.payload[0]) if entry.payload else 0
            state[rows[0]] = intern(("const", fill))
        elif mnemonic == "MEM_WR":
            state[rows[0]] = intern(("data", entry.payload))
        elif mnemonic == "MEM_RD":
            sub.observations.append(
                ("MEM_RD", rows[0], _value(state, key, rows[0], intern))
            )
        elif mnemonic == "DPU":
            if rows:
                sub.observations.append(
                    ("DPU", rows[0], _value(state, key, rows[0], intern))
                )
            else:
                sub.observations.append(("DPU", None, None))
        else:
            raise UnmodelledMnemonicError(mnemonic, entry.index)


def _value(state: dict[int, int], key: SubKey, row: int, intern: Any) -> int:
    """The value id ``row`` holds; an untouched row holds its init term."""
    found = state.get(row)
    if found is None:
        found = state[row] = intern(("init", key, row))
    return found


def interpret_trace(
    trace: CommandTrace, interner: Interner | None = None
) -> dict[SubKey, SubSummary]:
    """One-call symbolic interpretation of a stream."""
    return SymbolicInterpreter(interner).run(trace)


def stream_cost(
    trace: CommandTrace,
    timing: TimingParameters,
    energy: Any,
) -> tuple[int, float, float]:
    """``(commands, serial time ns, energy nJ)`` of one stream.

    Priced through the shared cost table, so both sides of an
    equivalence check (and the optimiser's savings report) use the
    exact arithmetic the ledger uses.
    """
    costs = command_cost_table(timing, energy)
    commands = 0
    time_ns = 0.0
    energy_nj = 0.0
    for entry in trace:
        commands += 1
        entry_time, entry_energy = costs[entry.mnemonic]
        time_ns += entry_time
        energy_nj += entry_energy
    return commands, time_ns, energy_nj


# --------------------------------------------------------------------------
# the equivalence judgement
# --------------------------------------------------------------------------

_ENVELOPE_FIELDS = ("engine", "complete", "cold_start")


def _check_envelope(
    original: TraceDocument,
    optimized: TraceDocument,
    report: FindingReport,
    source: str,
) -> None:
    for name in _ENVELOPE_FIELDS:
        if getattr(original, name) != getattr(optimized, name):
            report.add(
                "E006",
                f"document {name} changed: "
                f"{getattr(original, name)!r} -> "
                f"{getattr(optimized, name)!r}",
                source=source,
            )
    for name in ("geometry", "layout", "timing"):
        if getattr(original, name) != getattr(optimized, name):
            report.add(
                "E006",
                f"document {name} section changed — an optimiser must "
                "never touch the platform context",
                source=source,
            )


_MAX_FINDINGS_PER_RULE = 8


def check_equivalence(
    original: TraceDocument,
    optimized: TraceDocument,
    source: str = "<trace>",
) -> FindingReport:
    """Prove (or refute) observational equivalence of two documents.

    The judgement is independent of the optimiser: both streams are
    re-interpreted from scratch over one shared interner and compared
    on observations, final row state, latch state and charge totals.
    An empty report *is* the proof certificate — every obligation was
    discharged.
    """
    from repro.core.energy import DEFAULT_ENERGY

    report = FindingReport()
    _check_envelope(original, optimized, report, source)

    interner = Interner()
    interpreter = SymbolicInterpreter(interner)
    try:
        before = interpreter.run(original.trace)
        after = interpreter.run(optimized.trace)
    except UnmodelledMnemonicError as exc:
        report.add("E007", str(exc), source=source, location=exc.index)
        return report

    for key in sorted(set(before) | set(after)):
        untouched = SubSummary(latch=interner.intern(("latch0", key)))
        lhs = before.get(key, untouched)
        rhs = after.get(key, untouched)
        _compare_sub(key, lhs, rhs, interner, report, source)

    timing = original.timing_parameters()
    old_cost = stream_cost(original.trace, timing, DEFAULT_ENERGY)
    new_cost = stream_cost(optimized.trace, timing, DEFAULT_ENERGY)
    for label, old, new, tol in (
        ("command count", old_cost[0], new_cost[0], 0),
        ("serial time", old_cost[1], new_cost[1], 1e-6),
        ("energy", old_cost[2], new_cost[2], 1e-6),
    ):
        if new > old + tol:
            report.add(
                "E004",
                f"optimised stream increases {label}: {old:g} -> {new:g}",
                source=source,
            )
    return report


def _compare_sub(
    key: SubKey,
    lhs: SubSummary,
    rhs: SubSummary,
    interner: Interner,
    report: FindingReport,
    source: str,
) -> None:
    if lhs.observations != rhs.observations:
        divergence = 0
        limit = min(len(lhs.observations), len(rhs.observations))
        while (
            divergence < limit
            and lhs.observations[divergence] == rhs.observations[divergence]
        ):
            divergence += 1
        report.add(
            "E002",
            f"sub-array {key}: observation sequences diverge at "
            f"position {divergence} "
            f"({len(lhs.observations)} vs {len(rhs.observations)} "
            "observations)",
            source=source,
            location=divergence,
        )
    mismatched = 0
    for row in sorted(set(lhs.rows) | set(rhs.rows)):
        # a row one side never touched still holds its initial value;
        # interning the init term through the shared table yields the
        # same id the other side would have produced by reading it
        left = lhs.rows.get(row)
        if left is None:
            left = interner.intern(("init", key, row))
        right = rhs.rows.get(row)
        if right is None:
            right = interner.intern(("init", key, row))
        if left != right:
            mismatched += 1
            if mismatched <= _MAX_FINDINGS_PER_RULE:
                report.add(
                    "E001",
                    f"sub-array {key}: final contents of row {row} "
                    "differ between original and optimised stream",
                    source=source,
                    location=row,
                )
    if mismatched > _MAX_FINDINGS_PER_RULE:
        report.add(
            "E001",
            f"sub-array {key}: {mismatched - _MAX_FINDINGS_PER_RULE} "
            "further row mismatches suppressed",
            source=source,
        )
    if lhs.latch != rhs.latch:
        report.add(
            "E003",
            f"sub-array {key}: final carry-latch state differs",
            source=source,
        )
