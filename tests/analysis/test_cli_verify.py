"""The ``verify-trace`` CLI and ``assemble --aap-trace-out`` recording."""

import json

import pytest

from repro.cli import main


@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "-o",
            str(out),
            "--length",
            "300",
            "--coverage",
            "5",
            "--read-length",
            "40",
            "--seed",
            "3",
        ]
    )
    assert rc == 0
    return out


@pytest.mark.parametrize("exec_engine", ["scalar", "bulk"])
def test_assemble_records_verifiable_trace(simulated, tmp_path, exec_engine):
    trace = tmp_path / f"trace_{exec_engine}.json"
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--exec-engine",
            exec_engine,
            "--aap-trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    assert trace.exists()
    assert main(["verify-trace", str(trace)]) == 0


def test_verify_trace_flags_seeded_hazard(simulated, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--aap-trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    # seed a read of an uninitialised compute row at the stream head
    compute_row = doc["geometry"]["data_rows"] + 2
    doc["commands"].insert(
        0, {"op": "AAP1", "sub": [0, 0, 0], "rows": [compute_row, 5]}
    )
    trace.write_text(json.dumps(doc))
    assert main(["verify-trace", str(trace)]) == 1
    err = capsys.readouterr().err
    assert "[V003]" in err


def test_verify_trace_rejects_garbage_with_input_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}')
    assert main(["verify-trace", str(bad)]) == 2


def test_verify_trace_malformed_charge_is_input_error(tmp_path, capsys):
    doc = {
        "format": "repro-aap-trace/1",
        "engine": "bulk",
        "geometry": {"rows": 64, "cols": 8, "compute_rows": 8, "data_rows": 56},
        "commands": [],
        "charges": [{"op": "AAP1", "sub": [0], "count": 1, "time_ns": 85.0}],
    }
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify-trace", str(bad)]) == 2
    assert "charge #0" in capsys.readouterr().err


def test_verify_trace_missing_file_is_input_error(tmp_path):
    assert main(["verify-trace", str(tmp_path / "absent.json")]) == 2


def test_aap_trace_out_requires_pim_engine(simulated, tmp_path):
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "--engine",
            "software",
            "--aap-trace-out",
            str(tmp_path / "trace.json"),
        ]
    )
    assert rc == 2


def test_aap_trace_out_rejects_job_mode(simulated, tmp_path):
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "--job-dir",
            str(tmp_path / "job"),
            "--aap-trace-out",
            str(tmp_path / "trace.json"),
        ]
    )
    assert rc == 2


def test_verify_trace_json_output(simulated, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--aap-trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    assert main(["verify-trace", "--json", str(trace)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["total_findings"] == 0
    (document,) = payload["documents"]
    assert document["engine"] == "scalar"
    assert document["findings"] == []
    assert document["commands"] > 0


def test_verify_trace_json_reports_findings(simulated, tmp_path, capsys):
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--aap-trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    doc = json.loads(trace.read_text())
    compute_row = doc["geometry"]["data_rows"] + 2
    doc["commands"].insert(
        0, {"op": "AAP1", "sub": [0, 0, 0], "rows": [compute_row, 5]}
    )
    trace.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify-trace", "--json", str(trace)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    rules = {f["rule"] for f in payload["documents"][0]["findings"]}
    assert "V003" in rules


def test_optimize_trace_reduces_and_reverifies(simulated, tmp_path):
    trace = tmp_path / "trace.json"
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--aap-trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    out = tmp_path / "trace.opt.json"
    assert main(["optimize-trace", str(trace), "-o", str(out)]) == 0
    assert out.exists()
    before = json.loads(trace.read_text())
    after = json.loads(out.read_text())
    assert len(after["commands"]) < len(before["commands"])
    assert after["meta"]["aap_opt"]["justifications_total"] > 0
    # the optimised stream must be finding-free under the verifier
    assert main(["verify-trace", str(out)]) == 0


def test_optimize_trace_bulk_document_is_identity(simulated, tmp_path, capsys):
    trace = tmp_path / "trace_bulk.json"
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--exec-engine",
            "bulk",
            "--aap-trace-out",
            str(trace),
        ]
    )
    assert rc == 0
    out = tmp_path / "trace_bulk.opt.json"
    assert main(["optimize-trace", str(trace), "-o", str(out)]) == 0
    err = capsys.readouterr().err
    assert "[O001]" in err
    before = json.loads(trace.read_text())
    after = json.loads(out.read_text())
    assert len(after["commands"]) == len(before["commands"])
    assert main(["verify-trace", str(out)]) == 0


def test_optimize_trace_garbage_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": "something-else"}')
    assert main(["optimize-trace", str(bad)]) == 2


def test_assemble_aap_opt_replays_bit_identical(simulated, tmp_path, capsys):
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "-k",
            "13",
            "--aap-opt",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "replay bit-identical" in out
    assert (tmp_path / "contigs.fa").exists()


def test_aap_opt_requires_scalar_exec_engine(simulated, tmp_path):
    rc = main(
        [
            "assemble",
            str(simulated / "reads.fq"),
            "-o",
            str(tmp_path / "contigs.fa"),
            "--exec-engine",
            "bulk",
            "--aap-opt",
        ]
    )
    assert rc == 2
