"""Perf trajectory for the multi-tenant service scheduler.

Measures the service layer's *overhead* — scheduling rounds, admission
checks, per-round health work — against running the same jobs serially
through bare ``JobRunner``s.  Writes ``BENCH_service.json`` so future
scheduler changes have a recorded baseline.

The assertable claims (``--check``):

* dispatching through the service must cost < 100% over bare serial
  runners (the scheduler is bookkeeping, not work);
* the scheduler grants exactly one job per round;
* results are bit-identical to serial execution.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_throughput.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

MAX_OVERHEAD_FRACTION = 1.0  # service/serial - 1, quick sizes


def build_jobs(tenants: int, per_tenant: int, genome_bp: int):
    from repro.genome.reads import ReadSimulator
    from repro.genome.reference import synthetic_chromosome

    jobs = []
    for t in range(tenants):
        for i in range(per_tenant):
            seed = 1000 + 17 * t + i
            reference = synthetic_chromosome(genome_bp, seed=seed)
            sim = ReadSimulator(read_length=40, seed=seed + 1)
            reads = sim.sample(
                reference, sim.reads_for_coverage(genome_bp, 6)
            )
            jobs.append((f"tenant-{t}", f"job-{i}", list(reads)))
    return jobs


def contigs_of(outcome):
    return [(c.name, str(c.sequence)) for c in outcome.result.contigs]


def bench_serial(jobs, k: int, tmp: Path) -> dict:
    from repro.runtime.jobs import JobConfig, JobRunner

    config = JobConfig(k=k)
    start = time.perf_counter()
    results = {}
    for tenant, name, reads in jobs:
        outcome = JobRunner(
            tmp / "serial" / tenant / name, config, sleep=lambda _s: None
        ).run(reads)
        results[f"{tenant}/{name}"] = contigs_of(outcome)
    return {"wall_s": time.perf_counter() - start, "results": results}


def bench_service(jobs, k: int, tmp: Path) -> dict:
    from repro.runtime.jobs import JobConfig
    from repro.service import AssemblyService, ServiceConfig, TenantQuota

    config = JobConfig(k=k)
    service = AssemblyService(
        tmp / "svc",
        ServiceConfig(
            default_quota=TenantQuota(max_queued=64),
            max_total_queued=256,
        ),
        sleep=lambda _s: None,
    )
    start = time.perf_counter()
    for tenant, name, reads in jobs:
        service.submit(tenant, name, reads, config)
    report = service.drain()
    wall = time.perf_counter() - start
    assert not report.failed and not report.shed
    results = {
        f"{t.tenant}/{t.name}": contigs_of(t.outcome)
        for t in report.completed
    }
    per_round: dict = {}
    for grant in report.grants:
        per_round[grant.round] = per_round.get(grant.round, 0) + 1
    return {
        "wall_s": wall,
        "rounds": report.rounds,
        "grants": len(report.grants),
        "peak_grants_per_round": max(per_round.values()),
        "results": results,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke)"
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail on scheduler overhead, more than one grant per "
        "round, or any divergence from serial results",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(
            Path(__file__).resolve().parent.parent / "BENCH_service.json"
        ),
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)

    import tempfile

    k = 11
    tenants, per_tenant = (3, 2) if args.quick else (4, 4)
    genome_bp = 300 if args.quick else 800
    jobs = build_jobs(tenants, per_tenant, genome_bp)

    with tempfile.TemporaryDirectory(prefix="bench-service-") as tmp:
        tmp = Path(tmp)
        serial = bench_serial(jobs, k, tmp)
        service = bench_service(jobs, k, tmp=tmp)

    overhead = service["wall_s"] / serial["wall_s"] - 1.0
    identical = serial["results"] == service["results"]
    record = {
        "benchmark": "service_throughput",
        "mode": "quick" if args.quick else "full",
        "jobs": len(jobs),
        "tenants": tenants,
        "serial_wall_s": serial["wall_s"],
        "service_wall_s": service["wall_s"],
        "scheduler_overhead_fraction": overhead,
        "rounds": service["rounds"],
        "peak_grants_per_round": service["peak_grants_per_round"],
        "bit_identical_to_serial": identical,
        "max_overhead_floor": MAX_OVERHEAD_FRACTION,
    }

    print(
        f"{len(jobs)} jobs / {tenants} tenants: serial "
        f"{serial['wall_s'] * 1e3:7.1f} ms | service "
        f"{service['wall_s'] * 1e3:7.1f} ms (overhead {overhead:+.1%}, "
        f"peak {service['peak_grants_per_round']}/round)"
    )
    print(f"bit-identical to serial: {identical}")

    out = Path(args.output)
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out}")

    if args.check:
        failures = []
        if not identical:
            failures.append("service results diverged from serial")
        if overhead > MAX_OVERHEAD_FRACTION:
            failures.append(
                f"scheduler overhead {overhead:.1%} > "
                f"{MAX_OVERHEAD_FRACTION:.0%}"
            )
        if service["peak_grants_per_round"] != 1:
            failures.append(
                "the scheduler granted more than one job in a round "
                f"({service['peak_grants_per_round']})"
            )
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print(
            "OK: overhead bounded, one grant per round, results identical"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
