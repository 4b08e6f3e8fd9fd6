"""The symbolic row-state equivalence judge (rules ``E00x``)."""

import numpy as np

from repro.analysis.equiv import (
    Interner,
    check_equivalence,
    interpret_trace,
    stream_cost,
)
from repro.analysis.tracefile import TraceDocument
from repro.core.energy import DEFAULT_ENERGY
from repro.core.timing import DEFAULT_TIMING, command_cost_table
from repro.core.trace import CommandTrace

GEOMETRY = {"rows": 32, "cols": 64, "compute_rows": 8, "data_rows": 24}
SUB = (0, 0, 0)


def make_doc(build, engine="scalar", complete=True, geometry=None):
    """A minimal document around a trace the ``build`` callback records."""
    trace = CommandTrace()
    build(trace)
    return TraceDocument(
        engine=engine,
        trace=trace,
        geometry=dict(geometry or GEOMETRY),
        complete=complete,
    )


def fill(trace, row, value=0):
    trace.record(
        "ROW_INIT", SUB, (row,), np.array([value], dtype=np.uint8)
    )


# --------------------------------------------------------------------------
# interpreter semantics
# --------------------------------------------------------------------------


def test_copy_chain_collapses_to_source_value():
    interner = Interner()

    direct = CommandTrace()
    direct.record("MEM_RD", SUB, (2,))

    chained = CommandTrace()
    chained.record("AAP1", SUB, (2, 10))
    chained.record("AAP1", SUB, (10, 11))
    chained.record("MEM_RD", SUB, (11,))

    left = interpret_trace(direct, interner)[SUB]
    right = interpret_trace(chained, interner)[SUB]
    # the chained read observes row 11, but its *value* id must be the
    # init term of row 2 — identical to the direct read's value
    assert left.observations[0][2] == right.observations[0][2]


def test_xnor_is_commutative_in_the_lattice():
    interner = Interner()
    a = CommandTrace()
    a.record("AAP2", SUB, (2, 3, 12))
    b = CommandTrace()
    b.record("AAP2", SUB, (3, 2, 12))
    left = interpret_trace(a, interner)[SUB]
    right = interpret_trace(b, interner)[SUB]
    assert left.rows[12] == right.rows[12]


def test_sum_depends_on_latch_state():
    interner = Interner()
    cleared = CommandTrace()
    cleared.record("LATCH_CLR", SUB, ())
    cleared.record("SUM", SUB, (2, 3, 12))
    loaded = CommandTrace()
    loaded.record("LATCH_LD", SUB, (4,))
    loaded.record("SUM", SUB, (2, 3, 12))
    left = interpret_trace(cleared, interner)[SUB]
    right = interpret_trace(loaded, interner)[SUB]
    assert left.rows[12] != right.rows[12]


def test_stream_cost_matches_cost_table():
    trace = CommandTrace()
    trace.record("AAP1", SUB, (2, 10))
    trace.record("AAP2", SUB, (2, 3, 12))
    trace.record("MEM_RD", SUB, (12,))
    costs = command_cost_table(DEFAULT_TIMING, DEFAULT_ENERGY)
    commands, time_ns, energy_nj = stream_cost(
        trace, DEFAULT_TIMING, DEFAULT_ENERGY
    )
    assert commands == 3
    expected_t = sum(costs[m][0] for m in ("AAP1", "AAP2", "MEM_RD"))
    expected_e = sum(costs[m][1] for m in ("AAP1", "AAP2", "MEM_RD"))
    assert time_ns == expected_t
    assert energy_nj == expected_e


# --------------------------------------------------------------------------
# the judgement: positives
# --------------------------------------------------------------------------


def test_identical_streams_are_equivalent():
    def build(trace):
        fill(trace, 10)
        trace.record("AAP1", SUB, (2, 11))
        trace.record("AAP2", SUB, (2, 3, 12))
        trace.record("MEM_RD", SUB, (12,))

    report = check_equivalence(make_doc(build), make_doc(build))
    assert report.ok
    assert not report.findings


def test_redundant_precharge_removal_is_equivalent():
    def original(trace):
        fill(trace, 10, 0)
        fill(trace, 10, 0)
        trace.record("MEM_RD", SUB, (10,))

    def optimized(trace):
        fill(trace, 10, 0)
        trace.record("MEM_RD", SUB, (10,))

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert report.ok


def test_copy_propagation_rewrite_is_equivalent():
    def original(trace):
        trace.record("AAP1", SUB, (2, 10))
        trace.record("AAP2", SUB, (10, 3, 12))
        trace.record("MEM_RD", SUB, (12,))

    def optimized(trace):
        trace.record("AAP1", SUB, (2, 10))
        trace.record("AAP2", SUB, (2, 3, 12))
        trace.record("MEM_RD", SUB, (12,))

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert report.ok


def test_untouched_rows_resolve_to_init_terms():
    # the optimised side reads a row the original never touched — both
    # must agree it still holds its initial contents
    def original(trace):
        trace.record("MEM_RD", SUB, (5,))

    def optimized(trace):
        trace.record("MEM_RD", SUB, (5,))
        trace.record("AAP1", SUB, (7, 20))
        trace.record("AAP1", SUB, (7, 20))

    report = check_equivalence(make_doc(original), make_doc(optimized))
    # row 20 now holds init(7)'s value on one side only -> E001, but the
    # *read* of row 5 agrees; restrict to the row-divergence rule
    assert report.rules() == {"E001", "E004"}


# --------------------------------------------------------------------------
# the judgement: refutations, one per rule
# --------------------------------------------------------------------------


def test_e001_final_row_divergence():
    def original(trace):
        fill(trace, 10, 0)

    def optimized(trace):
        fill(trace, 10, 1)

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert "E001" in report.rules()
    assert not report.ok


def test_e002_observation_divergence():
    def original(trace):
        trace.record("MEM_RD", SUB, (5,))

    def optimized(trace):
        trace.record("MEM_RD", SUB, (6,))

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert "E002" in report.rules()


def test_e002_dropped_observation():
    def original(trace):
        trace.record("MEM_RD", SUB, (5,))
        trace.record("MEM_RD", SUB, (5,))

    def optimized(trace):
        trace.record("MEM_RD", SUB, (5,))

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert "E002" in report.rules()


def test_e003_latch_divergence():
    def original(trace):
        trace.record("LATCH_LD", SUB, (4,))

    def optimized(trace):
        trace.record("LATCH_CLR", SUB, ())

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert "E003" in report.rules()


def test_e004_cost_increase():
    def original(trace):
        fill(trace, 10, 0)

    def optimized(trace):
        fill(trace, 10, 0)
        trace.record("AAP1", SUB, (10, 11))
        trace.record("AAP1", SUB, (10, 11))

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert "E004" in report.rules()


def test_e006_envelope_divergence():
    def build(trace):
        fill(trace, 10, 0)

    other_geometry = dict(GEOMETRY, rows=64)
    report = check_equivalence(
        make_doc(build), make_doc(build, geometry=other_geometry)
    )
    assert "E006" in report.rules()


def test_e007_unmodelled_mnemonic():
    def original(trace):
        fill(trace, 10, 0)

    def optimized(trace):
        fill(trace, 10, 0)
        trace.record("REF", SUB, ())

    report = check_equivalence(make_doc(original), make_doc(optimized))
    assert report.rules() == {"E007"}
