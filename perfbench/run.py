"""Repository benchmark: seeded assembly workloads, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ladder-bulk --seed 1 --seconds 25 --trace 0

One invocation measures one workload in a fresh process: a closed loop
with one job in flight, jobs back to back for ``--seconds`` host seconds
(at least :data:`MIN_JOBS`).  Every job's output is checked against the
software reference assembler outside the timed region, and the
simulated ledger totals must repeat exactly across jobs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same loop, then one extra job with timing wrappers around each layer's
public functions (see ``tracing.py``), and prints the per-layer metrics
instead, with the tracing overhead against the untraced median job.

Simulated metrics (``sim_*``, ``*.sim_ms``, counts) come from the stats
ledger and repeat exactly for a seed; host metrics (``*_s``, ``*_ms``
of host time, RSS) are the simulator's own cost.  There is no hardware
reference result, so the model is unvalidated and no simulated metric
carries an error figure.

Host job times are steadied twice, because on a shared host neighbour
load slows whole stretches of a run by tens of percent.  First, a fixed
calibration kernel that runs no repro code (:func:`calibration_s`) is
timed between jobs, and each job's seconds are scaled to a host on which
that kernel takes :data:`CALIBRATION_REF_S`.  Second, the run reports
the fastest decile (:func:`p10`) of those scaled times, not the median.
The raw medians are kept in the record.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (provenance,
sample counts, per-rung and per-job times, failures) and, when tracing, the spans
are written under ``perfbench/out/``.  Exit status is 0 when every check
passed, 1 when one failed, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# single-threaded numeric kernels: steadier timings, never more
# threads than cores
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"

#: jobs measured even when ``--seconds`` runs out first
MIN_JOBS = 3
#: set-ups per run; ``setup_s`` is their median
SETUP_REPEATS = 11
#: seconds :func:`calibration_s` takes on an unloaded 2-core x86-64 VM
#: (Python 3.11, NumPy 2.4); host job times are reported at that speed
CALIBRATION_REF_S = 0.16

#: (name, unit) of the end-to-end metrics, printed with ``--trace 0``
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("kmers_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("scaling_exponent", "slope"),
    ("sim_time_ms", "ms"),
    ("sim_energy_uj", "uJ"),
    ("sim_commands", "count"),
)

MNEMONICS = (
    "AAP1", "AAP2", "AAP3", "SUM", "LATCH_LD", "LATCH_CLR", "ROW_INIT",
    "MEM_WR", "MEM_RD", "DPU", "REF", "ECC_CHK", "ECC_ENC", "ECC_FIX",
)

#: (name, unit) of the per-layer metrics, printed with ``--trace 1``
PER_LAYER = (
    ("hashmap.host_s", "s"),
    ("hashmap.self_s", "s"),
    ("hashmap.round_ms.p50", "ms"),
    ("hashmap.round_ms.p99", "ms"),
    ("hashmap.rounds", "count"),
    ("hashmap.kmers", "count"),
    ("hashmap.new_keys", "count"),
    ("hashmap.hit_ratio", "ratio"),
    ("hashmap.sim_ms", "ms"),
    ("scheduler.charge_calls", "count"),
    ("scheduler.charge_s", "s"),
    ("scheduler.flushes", "count"),
    ("debruijn.host_s", "s"),
    ("debruijn.nodes", "count"),
    ("debruijn.edges", "count"),
    ("adjacency.host_s", "s"),
    ("adjacency.self_s", "s"),
    ("adjacency.rows_s", "s"),
    ("adjacency.rows_calls", "count"),
    ("adjacency.wallace_s", "s"),
    ("traverse.sim_ms", "ms"),
    ("contigs.host_s", "s"),
    ("contigs.count", "count"),
    *((f"ledger.commands.{m}", "count") for m in MNEMONICS),
    ("storage.bytes", "bytes"),
    ("integrity.sync_s", "s"),
    ("integrity.sync_calls", "count"),
    ("integrity.rows_encoded", "count"),
    ("integrity.rows_scrubbed", "count"),
    ("resilience.events", "count"),
    ("journal.append_s", "s"),
    ("journal.appends", "count"),
    ("journal.bytes", "bytes"),
    ("telemetry.on_command_calls", "count"),
    ("telemetry.on_command_s", "s"),
    ("analysis.trace_commands", "count"),
    ("analysis.record_s", "s"),
    ("analysis.verify_s", "s"),
    ("analysis.optimize_s", "s"),
    ("aap_opt_reduction", "ratio"),
    ("trace.job_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.stage_cover", "ratio"),
    ("trace.spans", "count"),
)

#: layers whose outermost-call times should add up to the assemble
#: wall-clock of a plain bulk job (``trace.stage_cover``)
STAGE_LAYERS = ("hashmap", "debruijn", "adjacency", "contigs")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("ladder-bulk", "deep-bulk", "protected-bulk", "golden-scalar"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="toy input sizes (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# --------------------------------------------------------------------------
# provenance
# --------------------------------------------------------------------------


def git_commit(root: Path) -> str:
    """HEAD commit read straight from ``.git`` ("unknown" outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    import numpy

    src_lines = sum(
        len(path.read_bytes().splitlines())
        for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "git_commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "src_python_lines": src_lines,
    }


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------


def calibration_s() -> float:
    """Host seconds of a fixed dict/NumPy mix that runs no repro code."""
    import numpy as np

    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(60_000):
        table[i % 997] = table.get(i % 997, 0) + i
    values = np.arange(200_000, dtype=np.uint64)
    for _ in range(20):
        np.unique(values % 7919)
    return time.perf_counter() - start


def p10(values: list[float]) -> float:
    """Fastest-decile value (inclusive interpolation; min below 2 samples)."""
    if len(values) < 2:
        return min(values)
    return statistics.quantiles(values, n=10, method="inclusive")[0]


def scaling_exponent(lengths: list[int], seconds: list[float]) -> float:
    """Least-squares slope of log(seconds) against log(genome length)."""
    import numpy as np

    slope, _ = np.polyfit(np.log(lengths), np.log(seconds), 1)
    return float(slope)


def failed_fraction(records) -> float:
    return sum(1 for r in records if r.failures) / len(records)


def determinism_failures(records, traced=None) -> list[str]:
    """Simulated totals must be identical across every job of the run."""
    reference = records[0].ledgers
    others = list(records[1:]) + ([traced] if traced is not None else [])
    return [
        f"ledger totals of job {i + 1} differ from job 0"
        for i, record in enumerate(others)
        if record.ledgers != reference
    ]


def speed_factors(calibrations: list[float]) -> list[float]:
    """Per job: reference over measured calibration time around it."""
    return [
        2 * CALIBRATION_REF_S / (before + after)
        for before, after in zip(calibrations, calibrations[1:])
    ]


def per_rung_seconds(records, summarise, factors) -> list[float]:
    return [
        summarise([r.seconds[i] * f for r, f in zip(records, factors)])
        for i in range(len(records[0].seconds))
    ]


def end_to_end(workload, setup_s, records, factors, inputs) -> dict[str, float]:
    run_s = p10([r.total_s * f for r, f in zip(records, factors)])
    per_rung = per_rung_seconds(records, p10, factors)
    first = records[0].ledgers
    return {
        "setup_s": setup_s,
        "run_s": run_s,
        "kmers_per_s": sum(rung.kmers for rung in inputs) / run_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "scaling_exponent": scaling_exponent(list(workload.rungs), per_rung),
        "sim_time_ms": sum(sig[0] for sig in first) / 1e6,
        "sim_energy_uj": sum(sig[1] for sig in first) / 1e3,
        "sim_commands": sum(n for sig in first for _, n in sig[2]),
    }


def per_layer(spans, n_spans: int, traced, median_s: float) -> dict[str, float]:
    import numpy as np

    def seconds(name: str) -> float:
        return spans.name_ns[name] / 1e9

    counts = traced.counts
    rounds_ms = np.asarray(spans.round_ns, dtype=np.float64) / 1e6
    before = counts["aap_opt.before"]
    metrics = {
        "hashmap.host_s": spans.layer_ns["hashmap"] / 1e9,
        "hashmap.self_s": spans.self_ns["hashmap"] / 1e9,
        "hashmap.round_ms.p50": float(np.percentile(rounds_ms, 50)),
        "hashmap.round_ms.p99": float(np.percentile(rounds_ms, 99)),
        "hashmap.rounds": len(spans.round_ns),
        "hashmap.hit_ratio": 1.0 - counts["hashmap.new_keys"] / counts["hashmap.kmers"],
        "scheduler.charge_calls": spans.calls["scheduler.charge"],
        "scheduler.charge_s": seconds("scheduler.charge"),
        "scheduler.flushes": spans.calls["scheduler.flush"],
        "debruijn.host_s": spans.layer_ns["debruijn"] / 1e9,
        "adjacency.host_s": spans.layer_ns["adjacency"] / 1e9,
        "adjacency.self_s": spans.self_ns["adjacency"] / 1e9,
        "adjacency.rows_s": seconds("adjacency.rows"),
        "adjacency.rows_calls": spans.calls["adjacency.rows"],
        "adjacency.wallace_s": seconds("adjacency.wallace"),
        "contigs.host_s": spans.layer_ns["contigs"] / 1e9,
        "integrity.sync_s": seconds("integrity.sync"),
        "integrity.sync_calls": spans.calls["integrity.sync"],
        "journal.append_s": seconds("journal.append"),
        "journal.appends": spans.calls["journal.append"],
        "telemetry.on_command_calls": spans.calls["telemetry.on_command"],
        "telemetry.on_command_s": seconds("telemetry.on_command"),
        "analysis.verify_s": seconds("analysis.verify"),
        "analysis.optimize_s": seconds("analysis.optimize"),
        "aap_opt_reduction": (before - counts["aap_opt.after"]) / before
        if before
        else 0.0,
        "trace.job_s": traced.total_s,
        # one traced job against the untraced median: a noisy estimate
        "trace.overhead_frac": traced.total_s / median_s - 1.0,
        "trace.stage_cover": sum(spans.layer_ns[l] for l in STAGE_LAYERS)
        / 1e9
        / traced.total_s,
        "trace.spans": n_spans,
    }
    for name, _ in PER_LAYER:
        if name not in metrics:
            metrics[name] = counts.get(name, 0)
    return metrics


def measure(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads as wl

    setups = []
    calibrations = [calibration_s()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.make_inputs(workload, seed)
        warmup = [wl.make_input(workload, workload.warmup, seed)]
        wl.record_job(
            workload,
            wl.run_job(workload, warmup, workdir),
            [wl.reference_digest(workload, warmup[0])],
        )
        setups.append(time.perf_counter() - start)

    calibrations.append(calibration_s())
    setup_s = statistics.median(setups) * speed_factors(calibrations)[0]

    references: list[str] = []
    records = []
    calibrations = calibrations[1:]
    deadline = time.perf_counter() + seconds
    while len(records) < MIN_JOBS or time.perf_counter() < deadline:
        runs = wl.run_job(workload, inputs, workdir)
        calibrations.append(calibration_s())
        if not references:  # outside the timed region, once per run
            references = [wl.reference_digest(workload, r) for r in inputs]
        records.append(wl.record_job(workload, runs, references))
    factors = speed_factors(calibrations)
    metrics = end_to_end(workload, setup_s, records, factors, inputs)

    raw = [1.0] * len(records)
    report: dict = {
        "workload": workload.name,
        "seed": seed,
        "rungs": list(workload.rungs),
        "per_rung_run_s": per_rung_seconds(records, p10, factors),
        "per_rung_raw_median_s": per_rung_seconds(records, statistics.median, raw),
        "run_raw_median_s": statistics.median(r.total_s for r in records),
        "samples": {"setup_s": len(setups), "run_s": len(records)},
        "job_s": [r.total_s for r in records],
        "calibration_s": calibrations,
        "end_to_end": metrics,
    }
    traced = None
    if trace:
        import tracing

        tracer = tracing.LayerTracer(job_id=f"{workload.name}-{seed}")
        with tracer.installed(), tracer.span("job"):
            runs = wl.run_job(workload, inputs, workdir)
        traced = wl.record_job(workload, runs, references)
        spans = tracer.summary()
        report["per_layer"] = per_layer(
            spans, len(tracer), traced, report["run_raw_median_s"]
        )
        report["self_s"] = {k: v / 1e9 for k, v in sorted(spans.self_ns.items())}
        tracer.dump(
            OUT_DIR / f"{workload.name}.spans.json",
            workload=workload.name,
            seed=seed,
        )
    jobs = records + ([traced] if traced is not None else [])
    failures = [f for record in jobs for f in record.failures]
    failures += determinism_failures(records, traced)
    report["attempted"] = len(jobs)
    report["failed"] = sum(1 for record in jobs if record.failures)
    report["failed_frac"] = failed_fraction(jobs)
    report["failures"] = failures
    return report


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: the repro package is missing under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl

    workload = wl.WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT_DIR))
    try:
        report = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["provenance"] = provenance()
    out = OUT_DIR / f"{workload.name}-trace{args.trace}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")

    table = PER_LAYER if args.trace else END_TO_END
    values = report["per_layer"] if args.trace else report["end_to_end"]
    for name, unit in table:
        # per-layer figures come from the one traced job
        n = 1 if args.trace else report["samples"].get(name, report["samples"]["run_s"])
        print(f"{workload.name:>15} {name:<28} {values[name]:>16.6g} {unit} (n={n})")
    for failure in report["failures"]:
        print(f"FAIL: {failure}")
    correct = not report["failures"]
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in table
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
