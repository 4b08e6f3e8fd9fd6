"""Crash/resume smoke: SIGKILL a journaled assembly, resume, compare.

Demonstrates (and asserts) the job runtime's core contract end to end
with a *real* process kill, not a simulated one:

1. run an uninterrupted journaled assembly → golden contigs + counts;
2. start the same job in a subprocess and ``SIGKILL`` it mid-hashmap
   (a sentinel file tells us the stage is underway);
3. resume from the torn journal in a fresh process, checking the kill
   really landed mid-hashmap (no stage record, so the resume starts
   over from ``"start"``);
4. diff contigs and per-mnemonic command counts — they must be
   bit-identical to the uninterrupted run.

Run it once per execution engine::

    python examples/crash_resume_smoke.py --engine scalar
    python examples/crash_resume_smoke.py --engine bulk

``--ecc secded`` protects the job with SECDED ECC and a short retention
window (:data:`RETENTION_S`), so windows close — and the integrity
engine syncs — mid-hashmap; the integrity counters join the diff::

    python examples/crash_resume_smoke.py --engine bulk --ecc secded

``--resilience <policy>`` attaches a resilience policy too; its report
(events, verification cost, weak rows, quarantines) joins the diff::

    python examples/crash_resume_smoke.py --engine bulk --ecc secded \
        --resilience detect-retry-remap

Also exercised by CI (`crash-resume-smoke` job) on both engines, and on
the bulk engine with ECC, with and without detect-retry-remap.  Exit
code 0 on success; any divergence raises.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.core.resilience import PolicyLevel  # noqa: E402
from repro.genome.reads import ReadSimulator  # noqa: E402
from repro.genome.reference import synthetic_chromosome  # noqa: E402
from repro.runtime.jobs import JobConfig, JobRunner  # noqa: E402

K = 11
GENOME_BP = 1200
COVERAGE = 20
#: victim seconds per watchdog tick: the bulk hashmap takes ~800 ticks,
#: so 5 ms each keeps it running for seconds past the kill below
TICK_S = 0.005
#: simulated retention window under ``--ecc``: about a dozen windows
#: close during the bulk hashmap's ~13 ms of simulated time
RETENTION_S = 1e-3

# The victim subprocess: run the job, touching a sentinel once the
# hashmap stage has started so the parent knows when to shoot it.
VICTIM = r"""
import sys, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
from repro.runtime.jobs import JobConfig, JobRunner
from repro.runtime.watchdog import Watchdog
from example_workload import make_reads

job_dir, sentinel = sys.argv[2], Path(sys.argv[3])

def slow_tick(ticks):
    if ticks == 1:
        sentinel.touch()
    time.sleep(%(tick_s)r)  # stretch the stage so SIGKILL lands inside it

reads = make_reads()
config = JobConfig(**%(config)r)
runner = JobRunner(job_dir, config, watchdog=Watchdog(on_tick=slow_tick))
runner.run(reads)
"""


def make_reads():
    reference = synthetic_chromosome(GENOME_BP, seed=42)
    sim = ReadSimulator(read_length=60, seed=7)
    return sim.sample(
        reference, sim.reads_for_coverage(GENOME_BP, COVERAGE)
    )


def fingerprint(result) -> dict:
    return {
        "contigs": [(c.name, str(c.sequence)) for c in result.contigs],
        "hashmap": dict(result.hashmap.commands),
        "debruijn": dict(result.debruijn.commands),
        "traverse": dict(result.traverse.commands),
        "integrity": repr(result.integrity),
        "resilience": repr(result.resilience),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--engine", choices=("scalar", "bulk"), default="scalar"
    )
    parser.add_argument("--ecc", choices=("secded",), default=None)
    parser.add_argument(
        "--resilience", choices=[p.value for p in PolicyLevel], default=None
    )
    args = parser.parse_args()
    engine = args.engine
    options = {"k": K, "engine": engine}
    if args.ecc is not None:
        options.update(ecc=args.ecc, retention_interval_s=RETENTION_S)
    if args.resilience is not None:
        options.update(resilience=args.resilience)
    config = JobConfig(**options)
    reads = make_reads()
    with tempfile.TemporaryDirectory(prefix="crash-resume-") as tmp:
        tmp = Path(tmp)

        # 1. the uninterrupted golden run
        golden = JobRunner(tmp / "golden", config).run(reads)
        golden_fp = fingerprint(golden.result)
        print(
            f"golden: {len(golden_fp['contigs'])} contigs, "
            f"{sum(golden_fp['hashmap'].values())} hashmap commands"
        )
        if args.ecc is not None:
            windows = golden.result.integrity.windows
            if not windows:
                raise AssertionError("no retention window closed")
            print(f"golden: {windows} retention windows closed")

        # 2. start the victim and SIGKILL it mid-hashmap
        workload = tmp / "example_workload.py"
        workload.write_text(
            "import sys\nsys.path.insert(0, {src!r})\n"
            "from repro.genome.reads import ReadSimulator\n"
            "from repro.genome.reference import synthetic_chromosome\n"
            "def make_reads():\n"
            "    reference = synthetic_chromosome({bp}, seed=42)\n"
            "    sim = ReadSimulator(read_length=60, seed=7)\n"
            "    return sim.sample(reference, "
            "sim.reads_for_coverage({bp}, {cov}))\n".format(
                src=str(SRC), bp=GENOME_BP, cov=COVERAGE
            )
        )
        sentinel = tmp / "hashmap-started"
        victim = subprocess.Popen(
            [
                sys.executable,
                "-c",
                VICTIM % {"config": options, "tick_s": TICK_S},
                str(SRC),
                str(tmp / "job"),
                str(sentinel),
            ],
            cwd=tmp,
        )
        deadline = time.monotonic() + 60
        while not sentinel.exists():
            if victim.poll() is not None:
                raise RuntimeError("victim exited before hashmap started")
            if time.monotonic() > deadline:
                victim.kill()
                raise RuntimeError("victim never reached the hashmap stage")
            time.sleep(0.01)
        time.sleep(0.3)  # let it get some work journaled/underway
        os.kill(victim.pid, signal.SIGKILL)
        victim.wait()
        print(f"{engine} victim SIGKILLed (pid {victim.pid})")

        # 3. resume in this process
        out = JobRunner(tmp / "job", config).resume(reads)
        print(
            f"resumed from {out.report.resumed_from!r}: "
            f"{len(out.result.contigs)} contigs"
        )
        if out.report.resumed_from != "start":
            raise AssertionError(
                "the kill landed after the hashmap stage finished "
                f"(resumed from {out.report.resumed_from!r})"
            )

        # 4. bit-identical or bust
        resumed_fp = fingerprint(out.result)
        if resumed_fp != golden_fp:
            print(json.dumps({"golden": golden_fp, "resumed": resumed_fp}))
            raise AssertionError("resumed run diverged from golden run")
        print("resumed run is bit-identical to the uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
