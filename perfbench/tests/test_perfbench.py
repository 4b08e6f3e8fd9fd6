"""Tests of the repository benchmark, at toy input sizes.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0.1",
            "--trace",
            str(trace),
            *extra,
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_JOBS
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if not trace:
        assert all(m["value"] != 0 for m in result["metrics"].values())


def test_spec_matches_the_program():
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(
        run.PER_LAYER
    )


def test_wrong_contigs_raise_failed_frac(tmp_path):
    workload = wl.WORKLOADS["ladder-bulk"].smoke()
    inputs = wl.make_inputs(workload, seed=5)
    references = [wl.reference_digest(workload, rung) for rung in inputs]
    good = wl.record_job(
        workload, wl.run_job(workload, inputs, tmp_path), references
    )
    runs = wl.run_job(workload, inputs, tmp_path)
    runs[0].result.contigs.pop()
    bad = wl.record_job(workload, runs, references)
    assert good.failures == []
    assert bad.failures
    assert run.failed_fraction([good, good]) == 0
    assert run.failed_fraction([good, bad]) == 0.5


def test_determinism_guard_flags_a_ledger_mismatch():
    same = wl.JobRecord([1.0], [(1.0, 2.0, (("AAP1", 3),))], [], {})
    moved = wl.JobRecord([1.0], [(1.0, 2.0, (("AAP1", 4),))], [], {})
    assert run.determinism_failures([same, same], traced=same) == []
    assert run.determinism_failures([same, same], traced=moved)
    assert run.determinism_failures([same, moved])


def test_exits_without_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR,
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _bench(tmp_path, "deep-bulk", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
