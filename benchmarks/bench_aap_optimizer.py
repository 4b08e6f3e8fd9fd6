"""Verified AAP trace-optimizer benchmark.

Records one seeded assembly per execution engine, runs the
translation-validated optimizer (:mod:`repro.analysis.optimizer`) over
each document and records:

* charged-command and energy reduction on the scalar stream (the bulk
  document is partial and degrades to identity — recorded as such);
* the equivalence judgement (every rewrite must be proven) and a full
  re-verification of the optimised stream (must be finding-free);
* a replay of the optimised scalar stream against a fresh device,
  asserted bit-identical to the original run's final row state;
* the coalesced makespan before and after, priced by the batched
  scheduler (:func:`repro.core.scheduler.charge_stream`);
* wall-clock cost of the optimise + prove pipeline.

The record goes to ``BENCH_aapopt.json`` (the git-ignored
``BENCH_aapopt_quick.json`` with ``--quick``).  ``--check`` turns the
floors into a CI gate: the scalar stream must lose at least 15 % of
its commands and 10 % of its energy, the judge must accept,
re-verification must be clean and the replay identical.

Usage::

    PYTHONPATH=src python benchmarks/bench_aap_optimizer.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ENGINES = ("scalar", "bulk")

#: CI floors (fractions) for the scalar stream under ``--check``
COMMAND_REDUCTION_FLOOR = 0.15
ENERGY_REDUCTION_FLOOR = 0.10


def _record(engine: str, length: int):
    from repro.analysis.tracefile import TraceRecorder
    from repro.assembly.pipeline import _sized_device, assemble_with_pim
    from repro.genome import ReadSimulator, synthetic_chromosome

    reference = synthetic_chromosome(length, seed=7)
    simulator = ReadSimulator(read_length=40, seed=1)
    reads = simulator.sample(
        reference, simulator.reads_for_coverage(len(reference), 6)
    )
    pim = _sized_device(reads, 11)
    recorder = TraceRecorder(pim, engine=engine)
    with recorder:
        assemble_with_pim(reads, k=11, pim=pim, engine=engine)
    return recorder.document(workload="bench-aap-optimizer"), reads, pim


def _bench_engine(engine: str, length: int) -> dict:
    from repro.analysis.optimizer import optimize_document
    from repro.analysis.verifier import verify_document
    from repro.assembly.pipeline import _sized_device
    from repro.core.scheduler import charge_stream
    from repro.core.trace import replay

    doc, reads, pim = _record(engine, length)
    start = time.perf_counter()
    result = optimize_document(doc, source=f"<bench:{engine}>")
    wall_s = time.perf_counter() - start

    record: dict = {
        "engine": engine,
        "commands_recorded": len(doc.trace),
        "identity": result.identity,
        "equivalence_ok": result.ok,
        "wall_s": wall_s,
        "savings": result.savings,
        "optimizer_rules": sorted(result.report.rules()),
    }
    if result.identity:
        # partial bulk stream: identity by design, nothing to re-verify
        record["reverify_findings"] = 0
        record["replay_identical"] = None
        return record

    reverify = verify_document(result.document, source=f"<bench:{engine}>")
    record["reverify_findings"] = len(reverify)

    fresh = _sized_device(reads, 11)
    replay(result.document.trace, fresh.controller)
    keys = list(pim.device.subarray_keys())
    identical = all(
        (
            pim.device.subarray_at(key).snapshot()
            == fresh.device.subarray_at(key).snapshot()
        ).all()
        for key in keys
    )
    record["replay_identical"] = identical

    timing = doc.timing_parameters()
    before = charge_stream(doc.trace, timing=timing)
    after = charge_stream(result.document.trace, timing=timing)
    record["makespan_ns"] = {
        "before": before.makespan_ns,
        "after": after.makespan_ns,
    }
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless the scalar reductions clear the CI floors",
    )
    parser.add_argument(
        "-o",
        "--output",
        help="where to write the JSON record (default: BENCH_aapopt.json, "
        "or BENCH_aapopt_quick.json with --quick, at the repo root)",
    )
    args = parser.parse_args(argv)

    length = 300 if args.quick else 600
    records = [_bench_engine(engine, length) for engine in ENGINES]

    for rec in records:
        if rec["identity"]:
            print(
                f"{rec['engine']:>8}: identity "
                f"({rec['commands_recorded']} commands, partial stream)"
            )
            continue
        cmd = rec["savings"]["commands"]
        energy = rec["savings"]["energy_nj"]
        print(
            f"{rec['engine']:>8}: {cmd['before']} -> {cmd['after']} commands "
            f"(-{cmd['reduction']:.1%}), energy -{energy['reduction']:.1%}, "
            f"makespan {rec['makespan_ns']['before'] / 1e3:.1f} -> "
            f"{rec['makespan_ns']['after'] / 1e3:.1f} us, "
            f"wall {rec['wall_s'] * 1e3:.0f} ms, "
            f"replay identical: {rec['replay_identical']}"
        )

    results = {
        "benchmark": "aap_optimizer",
        "mode": "quick" if args.quick else "full",
        "params": {"length": length, "engines": list(ENGINES)},
        "floors": {
            "command_reduction": COMMAND_REDUCTION_FLOOR,
            "energy_reduction": ENERGY_REDUCTION_FLOOR,
        },
        "engines": records,
    }
    out = Path(
        args.output
        or Path(__file__).resolve().parent.parent
        / ("BENCH_aapopt_quick.json" if args.quick else "BENCH_aapopt.json")
    )
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out}")

    if args.check:
        failures = []
        for rec in records:
            if not rec["equivalence_ok"]:
                failures.append(f"{rec['engine']}: equivalence rejected")
            if rec["reverify_findings"]:
                failures.append(
                    f"{rec['engine']}: {rec['reverify_findings']} "
                    "re-verification finding(s)"
                )
            if rec["identity"]:
                continue
            if rec["replay_identical"] is not True:
                failures.append(f"{rec['engine']}: replay diverged")
            cmd = rec["savings"]["commands"]["reduction"]
            energy = rec["savings"]["energy_nj"]["reduction"]
            if cmd < COMMAND_REDUCTION_FLOOR:
                failures.append(
                    f"{rec['engine']}: command reduction {cmd:.1%} below "
                    f"floor {COMMAND_REDUCTION_FLOOR:.0%}"
                )
            if energy < ENERGY_REDUCTION_FLOOR:
                failures.append(
                    f"{rec['engine']}: energy reduction {energy:.1%} below "
                    f"floor {ENERGY_REDUCTION_FLOOR:.0%}"
                )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        scalar = next(r for r in records if r["engine"] == "scalar")
        cmd = scalar["savings"]["commands"]["reduction"]
        print(
            f"OK: scalar stream verified-equivalent with {cmd:.1%} fewer "
            "commands; optimised replay bit-identical"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
