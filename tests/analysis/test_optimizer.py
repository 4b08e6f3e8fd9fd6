"""The translation-validated trace optimizer (rules ``O00x``)."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.analysis.equiv import check_equivalence
from repro.analysis.optimizer import (
    DEFAULT_PASSES,
    PassStats,
    TraceOptimizer,
    optimize_document,
)
from repro.analysis.tracefile import (
    TraceDocument,
    TraceRecorder,
    load_document,
    save_document,
)
from repro.analysis.verifier import verify_document
from repro.assembly.pipeline import _sized_device, assemble_with_pim
from repro.core.scheduler import charge_stream
from repro.core.trace import CommandTrace
from repro.genome import ReadSimulator, synthetic_chromosome

GEOMETRY = {"rows": 32, "cols": 64, "compute_rows": 8, "data_rows": 24}
SUB = (0, 0, 0)


def make_doc(build, engine="scalar", complete=True):
    trace = CommandTrace()
    build(trace)
    return TraceDocument(
        engine=engine,
        trace=trace,
        geometry=dict(GEOMETRY),
        complete=complete,
    )


def signature(doc):
    """Everything observable about a document's command stream."""
    return (
        [(e.mnemonic, e.subarray, e.rows, e.payload) for e in doc.trace],
        list(doc.trace.marks),
    )


# --------------------------------------------------------------------------
# seeded corpus
# --------------------------------------------------------------------------


@pytest.fixture(scope="module")
def corpus_doc():
    reference = synthetic_chromosome(140, seed=5)
    simulator = ReadSimulator(read_length=30, seed=2)
    reads = simulator.sample(
        reference, simulator.reads_for_coverage(len(reference), 4)
    )
    pim = _sized_device(reads, 9)
    recorder = TraceRecorder(pim, engine="scalar")
    with recorder:
        assemble_with_pim(reads, k=9, pim=pim, engine="scalar")
    return recorder.document(workload="optimizer-corpus")


@pytest.fixture(scope="module")
def corpus_result(corpus_doc):
    result = optimize_document(corpus_doc, source="<corpus>")
    assert result.ok
    return result


def test_optimization_reduces_and_reverifies(corpus_doc, corpus_result):
    assert not corpus_result.identity
    savings = corpus_result.savings
    assert savings["commands"]["after"] < savings["commands"]["before"]
    assert savings["energy_nj"]["after"] < savings["energy_nj"]["before"]
    # the rewritten document must sail through the full verifier
    report = verify_document(corpus_result.document, source="<optimized>")
    assert report.render() == ""


def test_corpus_figures_are_pinned(corpus_doc, corpus_result):
    """The seeded corpus's command count, energy cut and coalesced
    makespans; the optimiser only removes and rewrites commands, and
    ``charge_stream`` prices them whatever their interleaving."""
    savings = corpus_result.savings
    assert savings["commands"] == {
        "before": 11906,
        "after": 8471,
        "reduction": pytest.approx(0.2885099949605241, rel=1e-12),
    }
    assert savings["energy_nj"]["reduction"] == pytest.approx(
        0.28961812144209725, rel=1e-12
    )
    before = charge_stream(corpus_doc.trace)
    after = charge_stream(corpus_result.document.trace)
    assert (before.makespan_ns, after.makespan_ns) == (180455.0, 123895.0)
    assert "gangs" not in savings


def test_ledger_recomputed_for_rewritten_stream(corpus_doc, corpus_result):
    before = corpus_doc.ledger
    after = corpus_result.document.ledger
    assert after is not None
    assert after["energy_nj"] < before["energy_nj"]
    assert after["time_ns"] < before["time_ns"]


def test_optimization_is_idempotent(corpus_result):
    """An optimised document is a fixpoint: every pass removes and
    rewrites nothing and the judge accepts the identity rewrite.  The
    rebuild renumbers the kept entries, keeps each mark between the
    right neighbours and carries every charge and flush over."""
    again = optimize_document(corpus_result.document, source="<again>")
    assert again.ok and not again.identity
    assert again.report.render() == ""
    assert signature(again.document) == signature(corpus_result.document)
    assert again.savings["commands"]["reduction"] == 0.0
    assert again.iterations == 1
    assert [(p.removed, p.rewritten) for p in again.passes] == [(0, 0)] * len(
        DEFAULT_PASSES
    )
    assert check_equivalence(corpus_result.document, again.document).ok

    # marks between removed entries: each keeps its place among the kept
    row = np.ones(GEOMETRY["cols"], dtype=np.uint8)

    def build(trace):
        trace.mark("hashmap:begin")
        trace.record("MEM_WR", SUB, (5,), row)  # dead: overwritten unread
        trace.mark("between")
        trace.record("MEM_WR", SUB, (5,), 1 - row)  # dead as well
        trace.mark("also-between")
        trace.record("MEM_WR", SUB, (5,), row)
        trace.record("MEM_RD", SUB, (5,))
        trace.mark("hashmap:end")
        trace.charge("AAP1", SUB, 2, 90.0)
        trace.flush(90.0, 90.0, 2)
        trace.charge("MEM_RD", SUB, 1, 45.0)

    doc = make_doc(build)
    result = TraceOptimizer(verify_input=False).optimize(doc, source="<marks>")
    assert result.ok
    assert [p.removed for p in result.passes] == [0, 2, 0, 0, 0, 0]
    rebuilt = result.document.trace
    assert [(e.index, e.mnemonic, e.rows, e.payload) for e in rebuilt] == [
        (0, "MEM_WR", (5,), tuple(row.tolist())),
        (1, "MEM_RD", (5,), None),
    ]
    assert rebuilt.marks == [
        (0, "hashmap:begin"),
        (0, "between"),
        (0, "also-between"),
        (2, "hashmap:end"),
    ]
    assert rebuilt.charges == doc.trace.charges
    assert rebuilt.flushes == doc.trace.flushes


def test_pass_ordering_does_not_change_the_result(corpus_doc, corpus_result):
    expected = signature(corpus_result.document)
    for perm in itertools.permutations(DEFAULT_PASSES):
        result = TraceOptimizer(passes=perm, verify_input=False).optimize(
            corpus_doc, source="<perm>"
        )
        assert result.ok
        assert signature(result.document) == expected


def test_justifications_recorded_in_meta(corpus_result):
    opt_meta = corpus_result.document.meta["aap_opt"]
    assert opt_meta["justifications_total"] > 0
    assert opt_meta["justifications"]
    names = {p["name"] for p in opt_meta["passes"]}
    assert {"copy_propagation", "dead_write", "redundant_init"} <= names


# --------------------------------------------------------------------------
# degradation-to-identity paths
# --------------------------------------------------------------------------


def test_o001_partial_bulk_document_is_identity():
    doc = make_doc(
        lambda t: t.record("MEM_RD", SUB, (3,)),
        engine="bulk",
        complete=False,
    )
    result = optimize_document(doc, source="<bulk>")
    assert result.ok
    assert result.identity
    assert result.document is doc
    assert "O001" in result.report.rules()


def test_o003_unmodelled_mnemonic_is_identity():
    def build(trace):
        trace.record("AAP1", SUB, (2, 10))
        trace.record("REF", SUB, ())

    result = optimize_document(make_doc(build), source="<ref>")
    assert result.ok
    assert result.identity
    assert "O003" in result.report.rules()


def test_o002_refuses_broken_input():
    # an AAP1 reading an uninitialised compute row is a V003 error; the
    # optimizer must refuse rather than launder the broken program
    compute_row = GEOMETRY["data_rows"] + 2
    doc = make_doc(lambda t: t.record("AAP1", SUB, (compute_row, 5)))
    result = optimize_document(doc, source="<broken>")
    assert result.ok is False
    assert "O002" in result.report.rules()
    assert result.document is doc


# --------------------------------------------------------------------------
# misfiring passes: the judge must reject each sabotaged rewrite
# --------------------------------------------------------------------------


def bad_dead_write(tokens):
    """A 'liveness' pass that also drops live MEM_WR/ROW_INIT writes."""
    kept = [
        t
        for t in tokens
        if not (t[0] == "entry" and t[1].mnemonic in ("MEM_WR", "ROW_INIT"))
    ]
    return kept, PassStats(name="bad_dead_write", removed=len(tokens) - len(kept))


def bad_copy_propagation(tokens):
    """A 'copy propagation' that reverses copy direction instead."""
    out = []
    rewritten = 0
    for token in tokens:
        if token[0] == "entry" and token[1].mnemonic == "AAP1":
            entry = token[1]
            src, des = entry.rows
            if src < des:
                entry = dataclasses.replace(entry, rows=(des, src))
                rewritten += 1
            out.append(("entry", entry))
        else:
            out.append(token)
    return out, PassStats(name="bad_copy_propagation", rewritten=rewritten)


def bad_redundant_init(tokens):
    """An 'init removal' that drops every LATCH_CLR, redundant or not."""
    kept = [
        t
        for t in tokens
        if not (t[0] == "entry" and t[1].mnemonic == "LATCH_CLR")
    ]
    return kept, PassStats(
        name="bad_redundant_init", removed=len(tokens) - len(kept)
    )


@pytest.mark.parametrize(
    "bad_pass", [bad_dead_write, bad_copy_propagation, bad_redundant_init]
)
def test_judge_rejects_misfiring_pass(corpus_doc, bad_pass):
    optimizer = TraceOptimizer(passes=[bad_pass], verify_input=False)
    result = optimizer.optimize(corpus_doc, source="<sabotage>")
    assert result.ok is False
    # the rewrite is rejected: the caller gets the untouched original,
    # the refuted stream is preserved for debugging
    assert result.document is corpus_doc
    assert result.rejected is not None
    assert result.report.rules() & {"E001", "E002", "E003"}


def test_gang_annotated_document_still_loads_and_reoptimises(
    tmp_path, corpus_doc, corpus_result
):
    """Optimised documents once carried ``meta["gangs"]`` slot
    annotations; such a document verifies clean, is still judged
    equivalent, and re-optimising it drops the stale key."""
    legacy = dataclasses.replace(
        corpus_result.document,
        meta={**corpus_result.document.meta, "gangs": [[77, 2], [85, 2]]},
    )
    loaded = load_document(save_document(tmp_path / "legacy.json", legacy))
    assert loaded.meta["gangs"] == [[77, 2], [85, 2]]
    assert verify_document(loaded).render() == ""
    assert check_equivalence(corpus_doc, loaded).ok
    again = optimize_document(loaded, source="<legacy>")
    assert again.ok
    assert "gangs" not in again.document.meta
    assert signature(again.document) == signature(corpus_result.document)


def test_payload_survives_round_trip(corpus_result):
    doc = corpus_result.document
    rebuilt = TraceDocument.from_json(doc.to_json(), source="<round-trip>")
    assert signature(rebuilt) == signature(doc)
