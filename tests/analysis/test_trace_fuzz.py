"""Fuzzing the trace loader, verifier and optimiser with generated documents.

For any ``repro-aap-trace/1`` JSON document, :func:`load_document`
either raises :class:`TraceFormatError`, or the verifier and the
optimiser both return reports.  No other exception may escape: the CLI
maps the first to exit 2 and the reports to exit 0/1, and anything
else is a traceback.

The generator builds mostly well-formed documents (so the rules and
the rewrite passes run) and swaps fields for arbitrary JSON values.
"""

import copy
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.findings import FindingReport
from repro.analysis.optimizer import OptimizationResult, optimize_document
from repro.analysis.tracefile import FORMAT, load_document
from repro.analysis.verifier import verify_document
from repro.core.isa import ISA
from repro.errors import TraceFormatError

GEOMETRY = {"rows": 16, "cols": 4, "compute_rows": 4, "data_rows": 12}
LAYOUT = {"kmer_rows": 4, "value_rows": 2, "temp_rows": 4}
TIMING = {"t_ras": 35.0, "t_rp": 15.0, "t_rcd": 15.0, "t_bl": 5.0}
LABELS = ["hashmap:begin", "hashmap:end", "scrub:begin", "scrub:end"]

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 300),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=3),
)
anything = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

subs = st.lists(st.integers(0, 1), min_size=3, max_size=3)
ops = st.sampled_from([*ISA, "FROB"])
commands = st.fixed_dictionaries(
    {"op": ops, "sub": subs, "rows": st.lists(st.integers(-1, 17), max_size=5)},
    optional={
        "payload": st.lists(st.integers(0, 1), min_size=1, max_size=1)
        | st.lists(st.integers(0, 2), min_size=4, max_size=4)
        | st.lists(st.integers(0, 255), max_size=5)
    },
)
times = st.sampled_from([0.0, 85.0, 170.0])
charges = st.fixed_dictionaries(
    {"op": ops, "sub": subs, "count": st.integers(-1, 3), "time_ns": times}
)
flushes = st.fixed_dictionaries(
    {
        "at": st.integers(0, 4),
        "serial_ns": times,
        "makespan_ns": times,
        "commands": st.integers(0, 3),
    }
)
ledgers = st.fixed_dictionaries(
    {
        "time_ns": times,
        "energy_nj": st.just(0.0),
        "commands": st.dictionaries(
            st.sampled_from([*ISA, "GANG", "VRF_AAP2"]),
            st.integers(0, 3),
            max_size=4,
        ),
    }
)
well_formed = st.fixed_dictionaries(
    {
        "format": st.just(FORMAT),
        "engine": st.sampled_from(["scalar", "bulk"]),
        "complete": st.booleans(),
        "cold_start": st.booleans(),
        "geometry": st.just(GEOMETRY),
        "layout": st.none() | st.just(LAYOUT),
        "timing": st.none() | st.just(TIMING),
        "commands": st.lists(commands, max_size=10),
        "marks": st.lists(
            st.tuples(st.integers(0, 10), st.sampled_from(LABELS)).map(list),
            max_size=4,
        ),
        "charges": st.lists(charges, max_size=3),
        "flushes": st.lists(flushes, max_size=2),
        "ledger": st.none() | ledgers,
        "meta": st.just({}),
    }
)


def _slots(node, found):
    """Every (container, key) pair below ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        found.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, found)
    return found


@st.composite
def documents(draw):
    """A well-formed document with up to two values swapped for junk."""
    raw = copy.deepcopy(draw(well_formed))
    for _ in range(draw(st.integers(0, 2))):
        container, key = draw(st.sampled_from(_slots(raw, [])))
        container[key] = draw(anything)
    return raw


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(raw=documents())
def test_generated_documents_load_or_get_reports(tmp_path, raw):
    path = tmp_path / "fuzz.json"
    path.write_text(json.dumps(raw))
    try:
        doc = load_document(path)
    except TraceFormatError:
        return
    assert isinstance(verify_document(doc), FindingReport)
    result = optimize_document(doc)
    assert isinstance(result, OptimizationResult)
    assert isinstance(result.report, FindingReport)
