"""Service chaos smoke: storm the multi-tenant service, audit the wreck.

Demonstrates (and asserts) the service layer's contracts end to end:

1. build a seeded multi-tenant workload and run it through the
   :class:`~repro.service.service.AssemblyService` while injecting
   mid-stage kills, impossible stage budgets, expired deadlines,
   corrupt inputs and in-memory fault storms — plus deliberate
   overload so admission control must shed;
2. audit with :meth:`~repro.service.chaos.ChaosReport.violations`:
   zero jobs lost or duplicated, survivors bit-identical to serial
   baselines, the round-robin fairness bound intact, every
   non-completion typed;
3. re-run one surviving job's reads through the CLI with
   ``--aap-trace-out`` and ``verify-trace`` the recorded command
   stream — a job that lived through the chaos run must still produce
   a finding-free AAP program.

Also exercised by CI (`service-chaos-smoke` job).  Exit 0 on success;
any broken promise raises.
"""

from __future__ import annotations

import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from repro.genome.io_fasta import FastqRecord, write_fastq  # noqa: E402
from repro.service.chaos import ChaosConfig, run_chaos  # noqa: E402

#: seeded so kills, timeouts AND admission sheds all occur (asserted)
SCENARIO = ChaosConfig(
    seed=2020,
    tenants=3,
    jobs_per_tenant=5,
    max_queued=3,
    weights={
        "none": 2,
        "kill": 3,
        "timeout": 2,
        "deadline": 1,
        "corrupt": 1,
        "storm": 1,
        "bitrot": 2,
    },
)


def verify_survivor_trace(report, tmp: Path) -> None:
    """Record + verify the AAP stream of one chaos survivor's workload."""
    survivor = next(
        t
        for t in report.service_report.completed
        if t.request.pim_factory is None  # storm platforms inject faults
    )
    job = next(
        j
        for j in report.planned
        if j.tenant == survivor.tenant and j.name == survivor.name
    )
    reads_path = tmp / "survivor.fq"
    write_fastq(
        reads_path,
        [FastqRecord(r.name, str(r.sequence)) for r in job.reads],
    )
    trace_path = tmp / "survivor-aap.json"
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    for argv in (
        [
            "assemble",
            str(reads_path),
            "-o",
            str(tmp / "survivor.fa"),
            "-k",
            str(report.config.k),
            "--aap-trace-out",
            str(trace_path),
        ],
        ["verify-trace", str(trace_path)],
    ):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            raise AssertionError(
                f"`{argv[0]}` exited {proc.returncode} for the survivor"
            )
    print(
        f"survivor {survivor.tenant}/{survivor.name}: AAP trace recorded "
        "and verified finding-free"
    )


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="service-chaos-") as tmp:
        tmp = Path(tmp)
        report = run_chaos(tmp / "chaos", SCENARIO)
        print(report)

        problems = report.violations()
        if problems:
            for problem in problems:
                print(f"VIOLATION: {problem}", file=sys.stderr)
            raise AssertionError(f"{len(problems)} service promise(s) broken")

        summary = report.summary()
        mix = summary["injections"]
        assert mix["kill"] >= 1, f"scenario never killed a job: {mix}"
        assert mix["timeout"] >= 1, f"scenario never timed a job out: {mix}"
        assert mix["bitrot"] >= 1, f"scenario never rotted a job: {mix}"
        assert summary["shed"] >= 1, "overload never forced a typed shed"
        assert summary["completed"] >= 1, "nothing survived to compare"
        bitrot_jobs = {
            j.key for j in report.planned if j.injection == "bitrot"
        }
        bitrot_done = [
            t
            for t in report.service_report.completed
            if f"{t.tenant}/{t.name}" in bitrot_jobs
        ]
        assert bitrot_done, "no bitrot job survived to prove SECDED works"
        healed = sum(
            t.outcome.result.integrity.words_corrected for t in bitrot_done
        )
        print(
            f"bitrot: {len(bitrot_done)} job(s) completed under retention "
            f"rot, {healed} word(s) healed by SECDED scrub, contigs "
            "bit-identical to baseline"
        )
        resumed = summary["resumed"]
        print(
            f"audit clean: {summary['completed']} completed "
            f"({resumed} via journal resume), {summary['failed']} typed "
            f"failures, {summary['shed']} typed sheds, "
            f"{summary['submit_errors']} typed submit errors, "
            "0 lost, 0 duplicated, fairness bound intact"
        )

        verify_survivor_trace(report, tmp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
