"""Perf trajectory for the bulk execution engine (scalar vs bulk).

Microbenchmarks the simulator's hot path under both execution engines
and writes ``BENCH_hotpath.json`` so future changes have a recorded
baseline:

* **hashmap** — end-to-end k-mer counting of a read set (the gang
  coalescing across sub-array partitions).

The entry records simulator *wall-clock* seconds and *modeled* device
nanoseconds.  ``--check`` asserts the wall-clock floor in
:data:`MIN_SPEEDUP` plus the packed-footprint bound; with
``--paper-scale`` it additionally requires >= 50x on the hashmap.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath_engine.py --quick --check
    PYTHONPATH=src python benchmarks/bench_hotpath_engine.py --paper-scale --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

#: per-kernel wall-clock speedup floors (asserted by ``--check``)
MIN_SPEEDUP = {"hashmap": 10.0}

#: --paper-scale must demonstrate this on the hashmap
PAPER_SCALE_TARGET = 50.0

#: hashmap sizes per mode: (reads, read_len, subarrays)
SIZES = {
    "quick": (10, 60, 128),
    "full": (60, 100, 512),
    # paper-scale: ~17.9k k-mers, where the scalar engine's per-op
    # Python dispatch dominates end to end (they need the
    # 1024-partition headroom: mostly-unique 9-mers average ~17 of
    # each partition's 44 table slots)
    "paper": (160, 120, 1024),
}


def _best_wall(fn, repeats: int) -> float:
    """Best-of-N wall time (seconds) of a fresh-state closure."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def bench_hashmap(mode: str, repeats: int) -> dict:
    from repro.assembly.hashmap import PimKmerCounter
    from repro.core import PimAssembler
    from repro.genome.reads import Read
    from repro.genome.sequence import DnaSequence

    n_reads, read_len, subarrays = SIZES[mode]
    rng = np.random.default_rng(3)
    reads = [
        Read(
            f"r{i}",
            DnaSequence("".join(rng.choice(list("ACGT"), size=read_len))),
            start=i,
        )
        for i in range(n_reads)
    ]
    total_kmers = sum(len(r.sequence) - 9 + 1 for r in reads)

    def run(engine):
        pim = PimAssembler.small(subarrays=subarrays)
        counter = PimKmerCounter(pim, 9, engine=engine)
        counter.add_reads(reads)
        return pim

    wall_scalar = _best_wall(lambda: run("scalar"), repeats)
    wall_bulk = _best_wall(lambda: run("bulk"), repeats)
    modeled_scalar = run("scalar").controller.ledger.totals().time_ns
    modeled_bulk = run("bulk").controller.ledger.totals().time_ns
    return {
        "params": {
            "n_reads": n_reads,
            "read_len": read_len,
            "k": 9,
            "total_kmers": total_kmers,
        },
        "scalar": {"wall_s": wall_scalar, "modeled_ns": modeled_scalar},
        "bulk": {"wall_s": wall_bulk, "modeled_ns": modeled_bulk},
        "wall_speedup": wall_scalar / wall_bulk,
        "modeled_speedup": modeled_scalar / modeled_bulk,
        "kmers_per_s": {
            "scalar": total_kmers / wall_scalar,
            "bulk": total_kmers / wall_bulk,
        },
    }


def measure_footprint() -> dict:
    """Packed vs unpacked host bytes for the reference geometry.

    Uses the default sub-array geometry's ``nbytes``: packed must stay
    within 1/8 of the retired uint8-per-bit representation plus one
    tail word per row (exact 1/8 when cols % 64 == 0).
    """
    from repro.core.storage import BitPlaneStore
    from repro.dram.geometry import default_geometry

    sub = default_geometry().bank.mat.subarray
    store = BitPlaneStore(sub.rows, sub.cols)
    packed = store.slot_nbytes
    unpacked = store.unpacked_slot_nbytes
    bound = unpacked // 8 + sub.rows * 8  # 1/8 + one tail word per row
    return {
        "geometry": {"rows": sub.rows, "cols": sub.cols},
        "packed_bytes_per_subarray": packed,
        "unpacked_bytes_per_subarray": unpacked,
        "ratio": packed / unpacked,
        "bound_bytes": bound,
        "within_bound": packed <= bound,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small sizes (CI smoke)"
    )
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="tens of thousands of k-mers; with --check, requires "
        f">= {PAPER_SCALE_TARGET}x on the hashmap",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail unless bulk holds the wall-clock floor "
        f"({MIN_SPEEDUP}) and the packed footprint bound",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="best-of-N timing repeats (default 3; 1 at paper scale)",
    )
    parser.add_argument(
        "-o",
        "--output",
        default=str(Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"),
        help="where to write the JSON record",
    )
    args = parser.parse_args(argv)
    if args.quick and args.paper_scale:
        parser.error("--quick and --paper-scale are mutually exclusive")
    mode = "paper" if args.paper_scale else "quick" if args.quick else "full"
    repeats = args.repeats or (1 if mode == "paper" else 3)

    results = {
        "benchmark": "hotpath_engine",
        "mode": {"paper": "paper-scale"}.get(mode, mode),
        "min_speedup_floor": MIN_SPEEDUP,
        "paper_scale_target": PAPER_SCALE_TARGET,
        "hashmap": bench_hashmap(mode, repeats),
        "footprint": measure_footprint(),
    }

    for name in MIN_SPEEDUP:
        entry = results[name]
        print(
            f"{name:>14}: scalar {entry['scalar']['wall_s'] * 1e3:8.1f} ms"
            f" | bulk {entry['bulk']['wall_s'] * 1e3:8.1f} ms"
            f" | wall speedup {entry['wall_speedup']:6.1f}x"
        )
    fp = results["footprint"]
    print(
        f"{'footprint':>14}: packed {fp['packed_bytes_per_subarray']} B"
        f" / unpacked {fp['unpacked_bytes_per_subarray']} B per sub-array"
        f" ({fp['ratio']:.4f}x)"
    )

    out = Path(args.output)
    out.write_text(json.dumps(results, indent=2) + "\n", encoding="ascii")
    print(f"wrote {out}")

    if args.check:
        failures = [
            f"{name} {results[name]['wall_speedup']:.1f}x < {floor}x"
            for name, floor in MIN_SPEEDUP.items()
            if results[name]["wall_speedup"] < floor
        ]
        if not fp["within_bound"]:
            failures.append(
                f"footprint {fp['packed_bytes_per_subarray']} B exceeds "
                f"bound {fp['bound_bytes']} B"
            )
        speedup = results["hashmap"]["wall_speedup"]
        if mode == "paper" and speedup < PAPER_SCALE_TARGET:
            failures.append(
                f"paper-scale hashmap {speedup:.1f}x < {PAPER_SCALE_TARGET}x"
            )
        if failures:
            print("FAIL: " + "; ".join(failures))
            return 1
        print(
            "OK: the hashmap floor "
            + (
                f"and the {PAPER_SCALE_TARGET}x paper-scale target hold"
                if mode == "paper"
                else "and the footprint bound hold"
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
