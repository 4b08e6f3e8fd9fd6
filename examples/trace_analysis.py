#!/usr/bin/env python3
"""Platform tooling: command traces, scheduling, replay.

Records the exact AAP command stream of a PIM k-mer-counting run, then
uses the three trace tools:

* **analysis** — command mix, per-sub-array load, imbalance;
* **scheduling** — the batched scheduler's coalesced makespan, i.e.
  how much sub-array parallelism the algorithm actually exposes;
* **replay** — re-issues the trace on a fresh device and verifies the
  final memory state is bit-identical (the trace fully describes the
  computation).

Run:
    python examples/trace_analysis.py
"""

from repro.assembly import PimKmerCounter
from repro.core import CommandTrace, PimAssembler, analyse, replay
from repro.core.scheduler import charge_stream
from repro.genome import synthetic_chromosome


def main() -> None:
    print("=== recording a PIM k-mer counting run ===")
    pim = PimAssembler.small(subarrays=2, rows=256, cols=64, mats=4)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)

    reference = synthetic_chromosome(600, seed=1234)
    counter = PimKmerCounter(pim, 11)
    counter.add_sequence(reference)
    print(f"counted {len(counter)} distinct 11-mers; trace has "
          f"{len(trace)} commands")

    print("\n--- command-mix analysis ---")
    stats = analyse(trace)
    for mnemonic, count in sorted(stats.command_mix.items()):
        print(f"  {mnemonic:>8}: {count:7d}")
    busiest = stats.busiest_subarray
    print(f"  busiest sub-array: {busiest[0]} ({busiest[1]} commands)")
    print(f"  load imbalance   : {stats.load_imbalance():.2f}x")

    print("\n--- scheduling (sub-array, GRB and DPU resources) ---")
    report = charge_stream(trace)
    print(f"  serial command time : {report.serial_ns / 1e6:8.3f} ms")
    print(f"  coalesced makespan  : {report.makespan_ns / 1e6:8.3f} ms")
    print(f"  exposed parallelism : {report.coalescing_speedup:.2f}x "
          f"over {len(stats.subarray_load)} sub-arrays")

    print("\n--- replay verification ---")
    fresh = PimAssembler.small(subarrays=2, rows=256, cols=64, mats=4)
    replay(trace, fresh.controller)
    identical = all(
        (
            pim.device.subarray_at(key).snapshot()
            == fresh.device.subarray_at(key).snapshot()
        ).all()
        for key in pim.device.subarray_keys()
    )
    print(f"  replayed {len(trace)} commands on a fresh device: "
          f"{'state identical' if identical else 'STATE MISMATCH'}")
    assert identical

    print("\nfirst five commands of the trace:")
    for entry in list(trace)[:5]:
        print(f"  {entry}")


if __name__ == "__main__":
    main()
