"""End-to-end bulk assembly over a genome-size ladder.

Assembles one synthetic genome per rung with the bulk engine and
writes ``BENCH_e2e.json`` (``BENCH_e2e_quick.json`` with ``--quick``,
so a smoke run never replaces the committed full ladder): per-stage
host seconds (hashmap / debruijn / traverse), the software reference
assembler's seconds, peak RSS, modelled (simulated) nanoseconds per
stage, and the exponent of a log-log fit of total host seconds against
genome length.  Every rung's contigs are compared with
``assembly/reference_impl.py``.

Setup: k=22, 101-bp error-free reads at 10x coverage,
``synthetic_chromosome(L, seed=1)`` and ``ReadSimulator(seed=2)``.
Each rung runs in a fresh interpreter, so its peak RSS is its own.

``--check`` fails the run when any rung's contigs differ from the
reference, the exponent exceeds :data:`MAX_EXPONENT`, or the 64 kbp
rung's total host seconds exceed :data:`MAX_64KBP_TOTAL_S`.

Usage::

    PYTHONPATH=src python benchmarks/bench_e2e.py --quick --check
    PYTHONPATH=src python benchmarks/bench_e2e.py    # up to 1 Mbp
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

K = 22
READ_LENGTH = 101
COVERAGE = 10.0

#: genome lengths (bp) per mode
LADDERS = {
    "quick": (4_000, 16_000, 64_000),
    "full": (4_000, 16_000, 64_000, 256_000, 1_000_000),
}

#: ``--check`` fails above this fitted scaling exponent
MAX_EXPONENT = 1.15

#: ``--check`` fails when the 64 kbp rung's ``total_s`` exceeds this:
#: 2x the committed full ladder's 64 kbp total (2.22 s on a 2-core
#: x86-64 VM), so a constant-factor slowdown fails even when the
#: exponent holds
MAX_64KBP_TOTAL_S = 2 * 2.22

STAGES = ("hashmap", "debruijn", "traverse")


def run_rung(length: int) -> dict:
    """Assemble one rung in this process and measure it."""
    from repro.assembly import reference_impl
    from repro.assembly.pipeline import PimPipeline, PipelineState, _sized_device
    from repro.genome import ReadSimulator, synthetic_chromosome

    genome = synthetic_chromosome(length, seed=1)
    simulator = ReadSimulator(read_length=READ_LENGTH, seed=2)
    reads = simulator.sample(
        genome, simulator.reads_for_coverage(length, COVERAGE)
    )

    start = time.perf_counter()
    pipeline = PimPipeline(_sized_device(reads, K), k=K, engine="bulk")
    state = PipelineState()
    host_s = {"setup": time.perf_counter() - start}
    stages = (
        ("hashmap", lambda: pipeline.run_hashmap(reads, state)),
        ("debruijn", lambda: pipeline.run_debruijn(state)),
        ("traverse", lambda: pipeline.run_traverse(state)),
    )
    for stage, run in stages:
        start = time.perf_counter()
        run()
        host_s[stage] = time.perf_counter() - start
    result = pipeline.result(state)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    start = time.perf_counter()
    reference = reference_impl.assemble(reads, K).contigs
    reference_s = time.perf_counter() - start

    return {
        "genome_bp": length,
        "reads": len(reads),
        "host_s": host_s,
        "total_s": sum(host_s.values()),
        "reference_s": reference_s,
        "peak_rss_mb": peak_rss_mb,
        "modelled_ns": {
            stage: getattr(result, stage).time_ns for stage in STAGES
        },
        "contigs": len(result.contigs),
        "contigs_match_reference": sorted(
            str(c.sequence) for c in result.contigs
        )
        == sorted(str(c.sequence) for c in reference),
    }


def scaling_exponent(lengths: list[int], seconds: list[float]) -> float:
    """Slope of the log-log least-squares fit of seconds on length."""
    slope, _ = np.polyfit(np.log(lengths), np.log(seconds), 1)
    return float(slope)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="4 -> 64 kbp (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on differing contigs, an exponent above "
        f"{MAX_EXPONENT} or a 64 kbp total above {MAX_64KBP_TOTAL_S:.2f} s",
    )
    parser.add_argument(
        "--rung", type=int, help=argparse.SUPPRESS
    )  # one rung in this process: the ladder's worker entry point
    parser.add_argument(
        "-o",
        "--output",
        help="where to write the JSON record (default: BENCH_e2e.json, "
        "or BENCH_e2e_quick.json with --quick, at the repo root)",
    )
    args = parser.parse_args(argv)
    if args.rung is not None:
        print(json.dumps(run_rung(args.rung)))
        return 0

    mode = "quick" if args.quick else "full"
    rungs = []
    for length in LADDERS[mode]:
        out = subprocess.run(
            [sys.executable, __file__, "--rung", str(length)],
            check=True,
            capture_output=True,
            text=True,
        ).stdout
        rung = json.loads(out.splitlines()[-1])
        rungs.append(rung)
        host = rung["host_s"]
        print(
            f"{length // 1000:>6} kbp: "
            + " ".join(f"{s} {host[s]:6.2f}s" for s in STAGES)
            + f" | total {rung['total_s']:6.2f}s"
            f" | reference {rung['reference_s']:6.2f}s"
            f" | {rung['peak_rss_mb']:6.0f} MB"
            f" | contigs {'ok' if rung['contigs_match_reference'] else 'DIFFER'}"
        )
    exponent = scaling_exponent(
        [r["genome_bp"] for r in rungs], [r["total_s"] for r in rungs]
    )
    print(f"scaling exponent {exponent:.3f}")
    record = {
        "benchmark": "e2e",
        "mode": mode,
        "setup": {
            "engine": "bulk",
            "k": K,
            "read_length": READ_LENGTH,
            "coverage": COVERAGE,
            "genome": "synthetic_chromosome(L, seed=1)",
            "reads": "ReadSimulator(seed=2)",
        },
        "max_exponent": MAX_EXPONENT,
        "scaling_exponent": exponent,
        "rungs": rungs,
    }
    out_path = Path(
        args.output
        or Path(__file__).resolve().parent.parent
        / ("BENCH_e2e_quick.json" if args.quick else "BENCH_e2e.json")
    )
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out_path}")

    if args.check:
        failures = [
            f"{r['genome_bp']} bp: contigs differ from the reference"
            for r in rungs
            if not r["contigs_match_reference"]
        ]
        if exponent > MAX_EXPONENT:
            failures.append(
                f"scaling exponent {exponent:.3f} > {MAX_EXPONENT}"
            )
        failures += [
            f"64 kbp total {r['total_s']:.2f} s > {MAX_64KBP_TOTAL_S:.2f} s"
            for r in rungs
            if r["genome_bp"] == 64_000 and r["total_s"] > MAX_64KBP_TOTAL_S
        ]
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print(
            "OK: contigs match on every rung, the exponent and the "
            "64 kbp seconds hold"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
