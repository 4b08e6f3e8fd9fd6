"""The instruction table in ``repro.core.isa`` against what actually runs.

The verifier, the optimiser, replay and the scheduler all read
:data:`repro.core.isa.ISA`, so a wrong entry would mislead all of them
at once.  Two independent witnesses pin each entry: the controller
(which rows and latch bits a real command changes, and what it charges)
and the equivalence judge's symbolic interpreter (which rows a command
reads and writes), which keeps its own per-mnemonic semantics.
"""

import numpy as np
import pytest

from repro.analysis.equiv import MODELLED_MNEMONICS, Interner, SymbolicInterpreter
from repro.core.isa import ISA, RowAddress, ledger_counts
from repro.core.platform import PimAssembler
from repro.core.trace import REPLAY_METHODS, CommandTrace

SUB = (0, 0, 0)


def at(row):
    return RowAddress(*SUB, row)


#: every single-command controller op, each issued once
CONTROLLER_OPS = [
    ("copy", lambda c, bits: c.copy(at(1), at(60))),
    ("compute2", lambda c, bits: c.compute2(at(1), at(2), at(61))),
    ("gang_compute2", lambda c, bits: c.gang_compute2([(at(1), at(2), at(61))])),
    ("tra_carry", lambda c, bits: c.tra_carry(at(1), at(2), at(3), at(62))),
    ("sum_cycle", lambda c, bits: c.sum_cycle(at(1), at(2), at(63))),
    ("load_latch", lambda c, bits: c.load_latch(at(4))),
    ("clear_latch", lambda c, bits: c.clear_latch(SUB)),
    ("init_row", lambda c, bits: c.init_row(at(5), 1)),
    ("write_row", lambda c, bits: c.write_row(at(6), bits)),
    ("read_row", lambda c, bits: c.read_row(at(7))),
    ("dpu_match", lambda c, bits: c.dpu_match(at(8))),
    ("dpu_scalar_add", lambda c, bits: c.dpu_scalar_add(SUB, 2, 3)),
]


@pytest.mark.parametrize(
    "name, issue", CONTROLLER_OPS, ids=[op[0] for op in CONTROLLER_OPS]
)
def test_controller_changes_exactly_the_table_destination(name, issue):
    rng = np.random.default_rng(7)
    pim = PimAssembler.small(subarrays=1, rows=64, cols=32)
    sub = pim.device.subarray_at(SUB)
    # random rows and latch, so any write is seen as a change
    for row in range(sub.rows):
        sub.write_row(row, rng.integers(0, 2, sub.cols).astype(np.uint8))
    sub.sa.load_latch(rng.integers(0, 2, sub.cols).astype(np.uint8))
    before_rows, before_latch = sub.snapshot(), sub.sa.latch
    before_counts = dict(pim.stats.totals().commands)

    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    with pim.phase("test"):
        issue(pim.controller, rng.integers(0, 2, sub.cols).astype(np.uint8))
    pim.controller.attach_trace(None)

    (entry,) = list(trace)
    signature = ISA[entry.mnemonic]
    assert len(entry.rows) in signature.arity
    changed = set(np.flatnonzero((sub.snapshot() != before_rows).any(axis=1)))
    assert changed == set(entry.rows[signature.writes])
    latch_changed = not np.array_equal(sub.sa.latch, before_latch)
    assert latch_changed == signature.writes_latch
    assert (entry.payload is not None) == (signature.payload != "none")

    after_counts = pim.stats.totals().commands
    charged = {
        m: after_counts[m] - before_counts.get(m, 0)
        for m in after_counts
        if after_counts[m] != before_counts.get(m, 0)
    }
    assert charged == dict(ledger_counts({entry.mnemonic: 1}))


def _payload(signature):
    return {"none": None, "fill": (1,), "row": (1, 0, 1, 0)}[signature.payload]


def _run(interner, entries):
    trace = CommandTrace()
    for mnemonic, rows, payload in entries:
        trace.record(
            mnemonic,
            SUB,
            rows,
            None if payload is None else np.asarray(payload, dtype=np.uint8),
        )
    return SymbolicInterpreter(interner).run(trace)[SUB]


@pytest.mark.parametrize("mnemonic", sorted(MODELLED_MNEMONICS))
def test_symbolic_interpreter_touches_the_table_operands(mnemonic):
    signature = ISA[mnemonic]
    rows = tuple(range(10, 10 + max(signature.arity)))
    entry = (mnemonic, rows, _payload(signature))
    interner = Interner()
    summary = _run(interner, [entry])

    def initial(row):
        return interner.intern(("init", SUB, row))

    read = {row for row, value in summary.rows.items() if value == initial(row)}
    written = set(summary.rows) - read
    assert read == set(rows[signature.reads])
    assert written == set(rows[signature.writes])
    assert bool(summary.observations) == signature.observation
    latch0 = interner.intern(("latch0", SUB))
    assert (summary.latch != latch0) == signature.writes_latch

    # a command reads the latch when a different latch value changes
    # what it writes or observes
    loaded = _run(interner, [("LATCH_LD", (50,), None), entry])
    outcome = ({r: summary.rows[r] for r in written}, summary.observations)
    outcome_loaded = ({r: loaded.rows[r] for r in written}, loaded.observations)
    assert (outcome != outcome_loaded) == signature.reads_latch


def test_program_mnemonics_are_the_judges_vocabulary():
    program = {m for m, sig in ISA.items() if sig.program}
    assert program == MODELLED_MNEMONICS


def test_replay_covers_every_state_changing_program_mnemonic():
    changing = {
        m for m, sig in ISA.items() if sig.program and not sig.observation
    }
    assert set(REPLAY_METHODS) == changing


def test_ledger_fold():
    assert ledger_counts({"ROW_INIT": 2, "AAP1": 1, "LATCH_CLR": 4, "FROB": 1}) == {
        "AAP1": 3
    }
