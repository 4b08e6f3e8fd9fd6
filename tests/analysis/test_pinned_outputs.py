"""Byte-level pins on the record → verify → optimise → judge outputs.

A seeded small scalar assembly is recorded, verified and optimised; the
saved documents, the verifier findings and the optimiser's pass
statistics and savings are compared against digests captured from the
implementation before the per-command fast paths.  Any moved byte in
any output fails a test here, so a speed-up of the analysis path
cannot silently change what it produces.
"""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.optimizer import optimize_document
from repro.analysis.tracefile import TraceRecorder, load_document, save_document
from repro.analysis.verifier import verify_document
from repro.assembly.pipeline import _sized_device, assemble_with_pim
from repro.core.trace import CommandTrace
from repro.genome import ReadSimulator, synthetic_chromosome

RECORDED_SHA256 = "bc995d7d715449846f139297a6171f7d6f547dfc31217452a674039a048520f6"
OPTIMIZED_SHA256 = "2631f99c0b885b5423b87d8bc942146db4a967b0daf53ce902cc68656ed21dbd"
PASSES_SHA256 = "82136e6e08551789dc385af411b69dac8f9dd7a6e8ee976afa5cb91483bb3160"
SAVINGS_SHA256 = "355f1606d09886d18248911e5a43fb76381d1056a0ba0d808be9d4c980e777f2"
SABOTAGED_FINDINGS_SHA256 = (
    "600ba7acce5bcf67019bb9630cc7ab992a0e18c266319a2f075b68481ee8388c"
)
SABOTAGED_REFUSAL_SHA256 = (
    "16e9e545f31dc4729a3f14542b953b776a37968305ba6bd3776628cf3fa17165"
)


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def file_digest(tmp_path, name, doc) -> str:
    return hashlib.sha256(save_document(tmp_path / name, doc).read_bytes()).hexdigest()


def findings(report) -> list[str]:
    return [str(finding) for finding in report]


def sabotage(commands):
    """Break a recorded command list in place-preserving ways (marks keep
    their positions): reversed copies, truncated payloads, dropped latch
    set-up and self-clobbering activations."""
    out = []
    for i, cmd in enumerate(commands):
        cmd = dict(cmd)
        op = cmd["op"]
        if op == "AAP1" and i % 97 == 0:
            cmd["rows"] = cmd["rows"][::-1]
        elif op == "MEM_WR" and i % 89 == 0:
            cmd["payload"] = cmd["payload"][:3]
        elif op in ("LATCH_LD", "LATCH_CLR"):
            cmd = {"op": "DPU", "sub": cmd["sub"], "rows": []}
        elif op == "AAP2" and i % 53 == 0:
            cmd["rows"] = [cmd["rows"][0], cmd["rows"][1], cmd["rows"][0]]
        out.append(cmd)
    return out


@pytest.fixture(scope="module")
def recorded():
    reference = synthetic_chromosome(120, seed=7)
    simulator = ReadSimulator(read_length=30, seed=3)
    reads = simulator.sample(
        reference, simulator.reads_for_coverage(len(reference), 4)
    )
    pim = _sized_device(reads, 9)
    recorder = TraceRecorder(pim, engine="scalar")
    with recorder:
        assemble_with_pim(reads, k=9, pim=pim, engine="scalar")
    return recorder.document(workload="pinned")


@pytest.fixture(scope="module")
def result(recorded):
    return optimize_document(recorded, source="<pinned>")


def test_recorded_document_bytes_are_pinned(tmp_path, recorded):
    assert len(recorded.trace) == 9257
    assert file_digest(tmp_path, "recorded.json", recorded) == RECORDED_SHA256
    assert findings(verify_document(recorded, source="<recorded>")) == []
    # loading converts payloads back through uint8 arrays: same bytes
    reloaded = load_document(tmp_path / "recorded.json")
    assert file_digest(tmp_path, "reloaded.json", reloaded) == RECORDED_SHA256


def test_optimized_document_bytes_are_pinned(tmp_path, result):
    assert result.ok and not result.identity
    assert findings(result.report) == []
    assert result.iterations == 2
    assert len(result.document.trace) == 6610
    assert file_digest(tmp_path, "optimized.json", result.document) == OPTIMIZED_SHA256
    assert findings(verify_document(result.document, source="<optimized>")) == []
    reloaded = load_document(tmp_path / "optimized.json")
    assert file_digest(tmp_path, "reloaded.json", reloaded) == OPTIMIZED_SHA256


def test_pass_statistics_and_savings_are_pinned(result):
    assert [(p.name, p.removed, p.rewritten) for p in result.passes] == [
        ("copy_propagation", 0, 4458),
        ("dead_write", 2647, 0),
        ("redundant_init", 0, 0),
        ("copy_propagation", 0, 0),
        ("dead_write", 0, 0),
        ("redundant_init", 0, 0),
    ]
    # every justification record, not only the sample kept in meta
    assert digest([dataclasses.asdict(p) for p in result.passes]) == PASSES_SHA256
    assert result.savings["commands"] == {
        "before": 9257,
        "after": 6610,
        "reduction": 0.28594577076806743,
    }
    assert digest(result.savings) == SAVINGS_SHA256


def test_findings_on_a_sabotaged_stream_are_pinned(recorded):
    doc_json = recorded.trace.to_json()
    broken = dataclasses.replace(
        recorded,
        trace=CommandTrace.from_json(
            {**doc_json, "commands": sabotage(doc_json["commands"])}
        ),
    )
    report = findings(verify_document(broken, source="<broken>"))
    assert len(report) == 88
    assert {f.split("[")[1][:4] for f in report} == {
        "V002", "V003", "V004", "V005", "V006", "V009"
    }
    assert digest(report) == SABOTAGED_FINDINGS_SHA256
    refused = optimize_document(broken, source="<broken>")
    assert not refused.ok and refused.document is broken
    assert digest(findings(refused.report)) == SABOTAGED_REFUSAL_SHA256
