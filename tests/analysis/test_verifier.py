"""The AAP trace verifier: seeded known-bad corpus + clean-pipeline checks.

Every dataflow/layout/accounting/charge rule gets a crafted document
that violates exactly it (flagged, and flagged *alone* — the corpus
doubles as a false-positive guard), and recorded traces of the real
pipeline under both execution engines must come back finding-free.
"""

import json

import numpy as np
import pytest

from repro.analysis.tracefile import (
    TraceDocument,
    TraceRecorder,
    load_document,
    save_document,
)
from repro.analysis.verifier import verify_document
from repro.cli import main
from repro.core.trace import CommandTrace
from repro.errors import TraceFormatError

SUB = (0, 0, 0)
GEOMETRY = {"rows": 64, "cols": 8, "compute_rows": 8, "data_rows": 56}
LAYOUT = {"kmer_rows": 16, "value_rows": 8, "temp_rows": 16}
TIMING = {
    "t_ras": 35.0,
    "t_rp": 15.0,
    "t_rcd": 15.0,
    "t_bl": 5.0,
    "t_dpu_clk": 1.0,
}


def make_doc(
    items=(),
    charges=(),
    flushes=(),
    ledger=None,
    cold_start=True,
    layout=None,
    engine="scalar",
    complete=True,
):
    """Build a crafted document.

    ``items`` mixes command tuples ``(op, rows)`` / ``(op, rows,
    payload)`` with ``("mark", label)`` markers, in stream order.
    """
    trace = CommandTrace()
    for item in items:
        if item[0] == "mark":
            trace.mark(item[1])
            continue
        op, rows = item[0], item[1]
        payload = np.asarray(item[2], dtype=np.uint8) if len(item) > 2 else None
        trace.record(op, SUB, tuple(rows), payload)
    for op, sub, count, time_ns in charges:
        trace.charge(op, sub, count, time_ns)
    for serial, makespan, commands in flushes:
        trace.flush(serial, makespan, commands)
    return TraceDocument(
        engine=engine,
        trace=trace,
        geometry=dict(GEOMETRY),
        layout=dict(layout) if layout else None,
        timing=dict(TIMING),
        ledger=ledger,
        complete=complete,
        cold_start=cold_start,
    )


def rules_of(doc):
    return verify_document(doc).rules()


FULL_ROW = [1, 0, 1, 0, 1, 0, 1, 0]

#: the seeded known-bad corpus: (name, doc factory, the one expected rule)
CORPUS = [
    (
        "unknown-mnemonic",
        lambda: make_doc([("FROB", (1, 2))]),
        "V001",
    ),
    (
        "aap1-wrong-arity",
        lambda: make_doc([("AAP1", (1, 2, 3))]),
        "V002",
    ),
    (
        "aap1-dead-self-copy",
        lambda: make_doc([("ROW_INIT", (1,), [1]), ("AAP1", (1, 1))]),
        "V002",
    ),
    (
        "row-out-of-range",
        lambda: make_doc([("AAP1", (1, 99))]),
        "V002",
    ),
    (
        "aap2-duplicate-sources",
        lambda: make_doc([("ROW_INIT", (1,), [1]), ("AAP2", (1, 1, 60))]),
        "V002",
    ),
    (
        "aap3-duplicate-sources",
        lambda: make_doc(
            [
                ("ROW_INIT", (1,), [1]),
                ("ROW_INIT", (2,), [0]),
                ("AAP3", (1, 2, 2, 60)),
            ]
        ),
        "V002",
    ),
    (
        "row-init-bad-fill",
        lambda: make_doc([("ROW_INIT", (1,), [5])]),
        "V002",
    ),
    (
        "mem-wr-short-payload",
        lambda: make_doc([("MEM_WR", (1,), [1, 0])]),
        "V002",
    ),
    (
        "mem-wr-non-bit-payload",
        lambda: make_doc([("MEM_WR", (1,), [2] * 8)]),
        "V002",
    ),
    (
        "ref-with-row-operand",
        lambda: make_doc([("REF", (1,))]),
        "V002",
    ),
    (
        "read-of-uninitialised-row",
        lambda: make_doc([("AAP1", (5, 60))]),
        "V003",
    ),
    (
        "read-of-cold-compute-row",
        lambda: make_doc([("AAP1", (60, 5))], cold_start=False),
        "V003",
    ),
    (
        "latch-use-before-load",
        lambda: make_doc([("SUM", (0, 1, 60))], cold_start=False),
        "V004",
    ),
    (
        "aap2-missing-precharge",
        lambda: make_doc([("AAP2", (0, 1, 1))], cold_start=False),
        "V005",
    ),
    (
        "sum-missing-precharge",
        lambda: make_doc(
            [("LATCH_CLR", ()), ("SUM", (0, 1, 0))], cold_start=False
        ),
        "V005",
    ),
    (
        "kmer-slot-double-insert",
        lambda: make_doc(
            [
                ("mark", "hashmap:begin"),
                ("AAP1", (40, 2)),
                ("AAP1", (41, 2)),
                ("mark", "hashmap:end"),
            ],
            cold_start=False,
            layout=LAYOUT,
        ),
        "V006",
    ),
    (
        "copy-into-value-region",
        lambda: make_doc(
            [
                ("mark", "hashmap:begin"),
                ("AAP1", (40, 18)),
                ("mark", "hashmap:end"),
            ],
            cold_start=False,
            layout=LAYOUT,
        ),
        "V006",
    ),
    (
        "compute-destination-off-compute-rows",
        lambda: make_doc(
            [
                ("mark", "hashmap:begin"),
                ("AAP2", (0, 1, 5)),
                ("mark", "hashmap:end"),
            ],
            cold_start=False,
            layout=LAYOUT,
        ),
        "V007",
    ),
    (
        "host-write-into-kmer-region",
        lambda: make_doc(
            [
                ("mark", "hashmap:begin"),
                ("MEM_WR", (3,), FULL_ROW),
                ("mark", "hashmap:end"),
            ],
            cold_start=False,
            layout=LAYOUT,
        ),
        "V007",
    ),
    (
        "ledger-time-off-cost-table",
        lambda: make_doc(
            [("ROW_INIT", (1,), [1]), ("ROW_INIT", (2,), [0])],
            ledger={"time_ns": 1.0, "commands": {"AAP1": 2}},
        ),
        "V008",
    ),
    (
        "ledger-unpriced-mnemonic",
        lambda: make_doc([], ledger={"time_ns": 0.0, "commands": {"GANG": 1}}),
        "V008",
    ),
    (
        "ledger-count-mismatch",
        lambda: make_doc(
            [("ROW_INIT", (1,), [1])],
            ledger={"time_ns": 255.0, "commands": {"AAP1": 3}},
        ),
        "V009",
    ),
    (
        "latch-clr-charged-to-ledger",
        lambda: make_doc(
            [("LATCH_CLR", ())],
            ledger={"time_ns": 0.0, "commands": {"LATCH_CLR": 1}},
        ),
        "V009",
    ),
    (
        "row-init-charged-under-its-own-name",
        lambda: make_doc(
            [("ROW_INIT", (1,), [1])],
            ledger={"time_ns": 170.0, "commands": {"AAP1": 1, "ROW_INIT": 1}},
        ),
        "V009",
    ),
    (
        "charge-unknown-mnemonic",
        lambda: make_doc(charges=[("FROB", SUB, 1, 0.0)], flushes=[(0.0, 0.0, 0)]),
        "C001",
    ),
    (
        "charge-nonpositive-count",
        lambda: make_doc(charges=[("AAP1", SUB, 0, 0.0)], flushes=[(0.0, 0.0, 0)]),
        "C002",
    ),
    (
        "charge-off-cost-table",
        lambda: make_doc(
            charges=[("AAP1", SUB, 2, 100.0)], flushes=[(100.0, 100.0, 2)]
        ),
        "C003",
    ),
    (
        "flush-math-wrong",
        lambda: make_doc(
            charges=[("AAP1", SUB, 2, 170.0)], flushes=[(100.0, 85.0, 2)]
        ),
        "C004",
    ),
    (
        "flush-non-monotone-makespan",
        lambda: make_doc(
            charges=[("AAP1", SUB, 2, 170.0)], flushes=[(170.0, 200.0, 2)]
        ),
        "C004",
    ),
    (
        "charges-never-flushed",
        lambda: make_doc(charges=[("AAP1", SUB, 1, 85.0)]),
        "C005",
    ),
]


@pytest.mark.parametrize(
    "name,factory,rule", CORPUS, ids=[c[0] for c in CORPUS]
)
def test_known_bad_corpus_is_flagged_precisely(name, factory, rule):
    """Each seeded hazard is caught, and caught alone (no noise)."""
    assert rules_of(factory()) == {rule}


def test_clean_stream_has_no_findings():
    doc = make_doc(
        [
            ("ROW_INIT", (60, ), [0]),
            ("AAP1", (0, 61)),
            ("AAP2", (0, 1, 62)),
            ("AAP3", (0, 1, 2, 63)),
            ("SUM", (3, 4, 60)),  # latch set by the TRA above
            ("LATCH_LD", (5,)),
            ("LATCH_CLR", ()),
            ("MEM_WR", (6,), FULL_ROW),
            ("MEM_RD", (6,)),
            ("DPU", (6,)),
            ("DPU", ()),
        ],
        cold_start=False,
    )
    assert rules_of(doc) == set()


def test_scrub_window_suspends_kmer_write_rule():
    doc = make_doc(
        [
            ("mark", "hashmap:begin"),
            ("mark", "scrub:begin"),
            ("MEM_WR", (3,), FULL_ROW),
            ("mark", "scrub:end"),
            ("mark", "hashmap:end"),
        ],
        cold_start=False,
        layout=LAYOUT,
    )
    assert rules_of(doc) == set()


def test_in_place_tra_is_legal():
    """AAP3 with des == a source (ripple carry) must not be flagged."""
    doc = make_doc([("AAP3", (0, 1, 2, 2))], cold_start=False)
    assert rules_of(doc) == set()


def test_vrf_ledger_skips_accounting_fold():
    """Verified runs recharge retries without re-tracing: no V008/V009."""
    doc = make_doc(
        [],
        ledger={"time_ns": 1.0, "commands": {"AAP1": 99, "VRF_RETRY": 1}},
    )
    assert rules_of(doc) == set()


def test_parallel_flush_makespan_accepted():
    """Distinct resources overlap: makespan < serial is the point."""
    doc = make_doc(
        charges=[
            ("AAP1", (0, 0, 0), 2, 170.0),
            ("AAP1", (0, 0, 1), 2, 170.0),
            ("DPU", (0, 0, 0), 5, 5.0),
        ],
        flushes=[(345.0, 170.0, 9)],
    )
    assert rules_of(doc) == set()


# ----- real pipeline traces must be finding-free -----------------------------


def _record_pipeline(engine, label=None):
    from repro.assembly.pipeline import _sized_device, assemble_with_pim
    from repro.genome import ReadSimulator, synthetic_chromosome

    reference = synthetic_chromosome(200, seed=11)
    simulator = ReadSimulator(read_length=30, seed=2)
    reads = simulator.sample(
        reference, simulator.reads_for_coverage(len(reference), 5)
    )
    pim = _sized_device(reads, 9)
    recorder = TraceRecorder(pim, engine=label or engine)
    with recorder:
        assemble_with_pim(reads, k=9, pim=pim, engine=engine)
    return recorder.document(workload="test")


@pytest.fixture(scope="module")
def scalar_doc():
    return _record_pipeline("scalar")


@pytest.fixture(scope="module")
def bulk_doc():
    return _record_pipeline("bulk")


def test_scalar_pipeline_trace_is_clean(scalar_doc):
    report = verify_document(scalar_doc)
    assert report.render() == ""
    assert len(scalar_doc.trace) > 1000  # the run was actually traced


def test_bulk_pipeline_trace_is_clean(bulk_doc):
    report = verify_document(bulk_doc)
    assert report.render() == ""
    assert len(bulk_doc.trace.charges) > 100  # gangs were recorded


def test_scalar_label_on_a_bulk_run_is_refused():
    """A bulk run labelled scalar would read as a complete program and
    fail verification against a correct run: the recorder refuses it."""
    with pytest.raises(ValueError, match="'scalar'.*'bulk'"):
        _record_pipeline("bulk", label="scalar")


def test_document_round_trips_through_json(tmp_path, bulk_doc):
    path = save_document(tmp_path / "doc.json", bulk_doc)
    loaded = load_document(path)
    assert loaded.engine == bulk_doc.engine
    assert loaded.geometry == bulk_doc.geometry
    assert loaded.layout == bulk_doc.layout
    assert len(loaded.trace) == len(bulk_doc.trace)
    assert loaded.trace.marks == bulk_doc.trace.marks
    assert loaded.trace.charges == bulk_doc.trace.charges
    assert loaded.trace.flushes == bulk_doc.trace.flushes
    assert loaded.ledger == bulk_doc.ledger
    assert verify_document(loaded).render() == ""


def test_bulk_document_keeps_charge_sections_and_format(tmp_path, bulk_doc):
    raw = json.loads(save_document(tmp_path / "doc.json", bulk_doc).read_text())
    assert raw["format"] == "repro-aap-trace/1"
    assert len(raw["charges"]) == len(bulk_doc.trace.charges)
    assert len(raw["flushes"]) == len(bulk_doc.trace.flushes) > 0


def test_corpus_round_trips_and_stays_flagged(tmp_path):
    """Serialisation must not wash out a single corpus hazard."""
    for name, factory, rule in CORPUS:
        path = save_document(tmp_path / f"{name}.json", factory())
        assert verify_document(load_document(path)).rules() == {rule}, name


# ----- format errors ---------------------------------------------------------


def test_load_rejects_wrong_format_tag(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "nope/9"}')
    with pytest.raises(TraceFormatError):
        load_document(path)


def test_load_rejects_non_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json at all")
    with pytest.raises(TraceFormatError):
        load_document(path)


def test_load_rejects_missing_file(tmp_path):
    with pytest.raises(TraceFormatError):
        load_document(tmp_path / "absent.json")


def test_from_json_rejects_bad_engine():
    with pytest.raises(TraceFormatError):
        TraceDocument.from_json(
            {"format": "repro-aap-trace/1", "engine": "warp"}
        )


def test_from_json_rejects_bad_geometry():
    with pytest.raises(TraceFormatError):
        TraceDocument.from_json(
            {
                "format": "repro-aap-trace/1",
                "engine": "scalar",
                "geometry": {"rows": "many"},
            }
        )


GOOD_CHARGE = {"op": "AAP1", "sub": [0, 0, 0], "count": 2, "time_ns": 170.0}
GOOD_FLUSH = {"at": 1, "serial_ns": 170.0, "makespan_ns": 170.0, "commands": 2}


@pytest.mark.parametrize(
    "section, bad",
    [
        ("charges", {"sub": [0]}),
        ("charges", {"sub": [0, 0, 0, 0]}),
        ("charges", {"sub": [0, 0, 0.5]}),
        ("charges", {"count": 2.0}),
        ("charges", {"count": "2"}),
        ("charges", {"time_ns": float("nan")}),
        ("charges", {"time_ns": float("inf")}),
        ("charges", {"time_ns": "170"}),
        ("flushes", {"at": "1"}),
        ("flushes", {"serial_ns": float("nan")}),
        ("flushes", {"makespan_ns": None}),
        ("flushes", {"commands": 2.5}),
    ],
)
def test_load_rejects_malformed_charges_and_flushes(tmp_path, section, bad):
    raw = make_doc().to_json()
    raw["charges"] = [dict(GOOD_CHARGE)]
    raw["flushes"] = [dict(GOOD_FLUSH)]
    raw[section][0].update(bad)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(TraceFormatError):
        load_document(path)


def test_load_accepts_well_formed_charges(tmp_path):
    raw = make_doc().to_json()
    raw["charges"] = [GOOD_CHARGE]
    raw["flushes"] = [GOOD_FLUSH]
    path = tmp_path / "good.json"
    path.write_text(json.dumps(raw))
    doc = load_document(path)
    assert doc.trace.charges == [("AAP1", (0, 0, 0), 2, 170.0)]
    assert doc.trace.flushes == [(1, 170.0, 170.0, 2)]
    assert verify_document(doc).render() == ""


def _set(path, value):
    """A mutator writing ``value`` at ``path`` of a raw document."""

    def mutate(raw):
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return mutate


#: malformed documents: each must fail at load, before any rule runs
MALFORMED = [
    ("payload-over-a-byte", _set(("commands", 0, "payload"), [300] * 8)),
    ("payload-negative", _set(("commands", 0, "payload"), [-1] * 8)),
    ("payload-not-a-list", _set(("commands", 0, "payload"), {})),
    ("payload-float", _set(("commands", 0, "payload"), [1.0] * 8)),
    ("row-float", _set(("commands", 0, "rows"), [1.5])),
    ("row-string", _set(("commands", 0, "rows"), ["1"])),
    ("sub-float", _set(("commands", 0, "sub"), [0, 0, 0.5])),
    ("ledger-count-not-int", _set(("ledger", "commands", "MEM_WR"), "x")),
    ("ledger-time-not-number", _set(("ledger", "time_ns"), "abc")),
    ("ledger-commands-not-object", _set(("ledger", "commands"), [1])),
    ("timing-unknown-key", _set(("timing", "t_frob"), 1.0)),
    ("timing-not-number", _set(("timing", "t_ras"), "fast")),
    ("timing-non-positive", _set(("timing", "t_ras"), 0.0)),
    ("mark-position-not-int", _set(("marks",), [[None, "hashmap:begin"]])),
    ("marks-not-a-list", _set(("marks",), {"0": "hashmap:begin"})),
    ("complete-not-bool", _set(("complete",), "false")),
    ("cold-start-not-bool", _set(("cold_start",), 0)),
]


@pytest.mark.parametrize(
    "name, mutate", MALFORMED, ids=[case[0] for case in MALFORMED]
)
def test_malformed_document_is_a_format_error(tmp_path, name, mutate):
    """A typed load error and the CLI's input exit, never a traceback."""
    raw = make_doc(
        [("MEM_WR", (1,), FULL_ROW)],
        ledger={"time_ns": 0.0, "commands": {"MEM_WR": 1}},
    ).to_json()
    mutate(raw)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(TraceFormatError):
        load_document(path)
    assert main(["verify-trace", str(path)]) == 2
