"""Chrome trace export, the schema validator, and the heatmap."""

import json

import pytest

from repro.observability.export import (
    LANE_ORDER,
    chrome_trace,
    format_subarray_heatmap,
    subarray_utilization,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Tracer


class SimClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _tracer_with_run():
    clock = SimClock()
    tracer = Tracer(sim_clock=clock)
    with tracer.span("stage.hashmap", lane="hashmap", k=21):
        clock.now = 100.0
        with tracer.span("scrub.table"):
            clock.now = 150.0
        tracer.event("resilience.quarantine", lane="resilience", subarray=[0, 0, 1])
        clock.now = 200.0
    with tracer.span("stage.traverse", lane="traverse"):
        clock.now = 300.0
    return tracer


class TestChromeTrace:
    def test_document_passes_own_validator(self):
        doc = chrome_trace(_tracer_with_run())
        assert validate_chrome_trace(doc) == []

    def test_lane_tids_follow_lane_order(self):
        doc = chrome_trace(_tracer_with_run())
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        ordered = [lane for lane in LANE_ORDER if lane in names]
        assert [names[lane] for lane in ordered] == sorted(names[lane] for lane in ordered)

    def test_ts_is_simulated_microseconds(self):
        doc = chrome_trace(_tracer_with_run())
        begin = next(
            e
            for e in doc["traceEvents"]
            if e["ph"] == "B" and e["name"] == "scrub.table"
        )
        assert begin["ts"] == pytest.approx(100.0 / 1e3)
        assert begin["args"]["sim_ns"] == pytest.approx(50.0)

    def test_child_nests_inside_parent_pairs(self):
        doc = chrome_trace(_tracer_with_run())
        lane_stream = [
            e["name"]
            for e in doc["traceEvents"]
            if e["ph"] in ("B", "E") and e.get("tid") is not None
            and e["name"].startswith(("stage.hashmap", "scrub"))
        ]
        assert lane_stream == [
            "stage.hashmap",
            "scrub.table",
            "scrub.table",
            "stage.hashmap",
        ]

    def test_instant_events_carry_s_and_args(self):
        doc = chrome_trace(_tracer_with_run())
        (inst,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert inst["s"] == "t"
        assert inst["args"] == {"subarray": [0, 0, 1]}

    def test_unfinished_spans_are_dropped_and_counted(self):
        tracer = Tracer()
        open_cm = tracer.span("open")  # keep a ref: GC would close it
        open_cm.__enter__()
        with tracer.span("closed"):
            pass
        doc = chrome_trace(tracer)
        assert validate_chrome_trace(doc) == []
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "B"]
        assert names == ["closed"]
        assert doc["otherData"]["unfinished_spans_dropped"] == 1

    def test_write_and_validate_file_roundtrip(self, tmp_path):
        path = write_chrome_trace(tmp_path / "t.json", _tracer_with_run())
        assert validate_trace_file(path) == []
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ns"


class TestValidator:
    def test_rejects_missing_trace_events(self):
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]

    def test_rejects_bad_phase_and_fields(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1},
                {"ph": "B", "pid": "one", "tid": 1, "name": "a", "ts": 0},
                {"ph": "B", "pid": 1, "tid": 1, "name": "", "ts": 0},
            ]
        }
        problems = validate_chrome_trace(doc)
        assert any("bad ph" in p for p in problems)
        assert any("invalid pid" in p for p in problems)
        assert any("missing name" in p for p in problems)

    def test_rejects_decreasing_ts(self):
        doc = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 10},
                {"ph": "E", "pid": 1, "tid": 1, "name": "a", "ts": 5},
            ]
        }
        assert any("decreases" in p for p in validate_chrome_trace(doc))

    def test_rejects_crossed_and_unclosed_pairs(self):
        crossed = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 0},
                {"ph": "B", "pid": 1, "tid": 1, "name": "b", "ts": 1},
                {"ph": "E", "pid": 1, "tid": 1, "name": "a", "ts": 2},
            ]
        }
        problems = validate_chrome_trace(crossed)
        assert any("closes B" in p for p in problems)
        unclosed = {
            "traceEvents": [
                {"ph": "B", "pid": 1, "tid": 1, "name": "a", "ts": 0},
            ]
        }
        assert any("unclosed" in p for p in validate_chrome_trace(unclosed))

    def test_rejects_stray_end(self):
        doc = {
            "traceEvents": [
                {"ph": "E", "pid": 1, "tid": 1, "name": "a", "ts": 0},
            ]
        }
        assert any("E without open B" in p for p in validate_chrome_trace(doc))


class TestMetricsWriter:
    def test_writes_snapshot_with_extras(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("jobs").inc(2)
        path = write_metrics(
            tmp_path / "m.json", reg, extra={"subarray_heatmap": [{"bank": 0}]}
        )
        doc = json.loads(path.read_text())
        assert doc["metrics"]["jobs"]["value"] == 2
        assert doc["subarray_heatmap"] == [{"bank": 0}]


class TestHeatmap:
    def test_utilization_from_platform_memory(self):
        import numpy as np

        from repro.core.platform import PimAssembler

        pim = PimAssembler.small(subarrays=4)
        sub = pim.device.subarray_at((0, 0, 0))
        sub.write_row(0, np.ones(sub.cols, dtype=np.uint8))
        sub.write_row(3, np.ones(sub.cols, dtype=np.uint8))
        records = subarray_utilization(pim)
        assert len(records) == 1
        rec = records[0]
        assert (rec["bank"], rec["mat"], rec["subarray"]) == (0, 0, 0)
        assert rec["rows_used"] == 2
        assert rec["utilization"] == pytest.approx(2 / rec["data_rows"])

    def test_format_heatmap_table(self):
        records = [
            {
                "bank": 0,
                "mat": 0,
                "subarray": i,
                "rows_used": 10 * (i + 1),
                "data_rows": 100,
                "utilization": 0.1 * (i + 1),
            }
            for i in range(3)
        ]
        text = format_subarray_heatmap(records, limit=2)
        assert "0,0,0" in text and "0,0,1" in text
        assert "+1 more sub-arrays" in text
        assert "#" in text

    def test_format_empty(self):
        assert "no sub-array" in format_subarray_heatmap([])


class TestUnifiedFindings:
    """The span validator reports through the shared findings model."""

    def test_valid_file_yields_empty_report(self, tmp_path):
        from repro.observability.export import validate_trace_report

        path = write_chrome_trace(tmp_path / "t.json", _tracer_with_run())
        report = validate_trace_report(path)
        assert report.ok and report.exit_code == 0

    def test_problems_become_x001_findings(self, tmp_path):
        import json

        from repro.observability.export import validate_trace_report

        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"traceEvents": "nope"}))
        report = validate_trace_report(path)
        assert report.rules() == {"X001"}
        assert report.exit_code == 1
        assert report.findings[0].source == str(path)

    @pytest.mark.parametrize("top_level", [[1, 2], "trace", 3, None])
    def test_non_object_document_is_a_finding(
        self, tmp_path, capsys, top_level
    ):
        from repro.analysis.findings import EXIT_FINDINGS
        from repro.observability.export import validate_trace_report
        from repro.observability.validate import main

        path = tmp_path / "list.json"
        path.write_text(json.dumps(top_level))
        report = validate_trace_report(path)
        assert report.rules() == {"X001"}
        assert "not a JSON object" in report.findings[0].message
        assert main([str(path)]) == EXIT_FINDINGS
        assert "INVALID" in capsys.readouterr().out

    def test_validate_cli_exit_codes(self, tmp_path, capsys):
        import json

        from repro.analysis.findings import EXIT_FINDINGS, EXIT_INPUT, EXIT_OK
        from repro.observability.validate import main

        good = write_chrome_trace(tmp_path / "good.json", _tracer_with_run())
        assert main([str(good)]) == EXIT_OK
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"traceEvents": "nope"}))
        assert main([str(bad)]) == EXIT_FINDINGS
        assert "INVALID" in capsys.readouterr().out
        assert main([]) == EXIT_INPUT
