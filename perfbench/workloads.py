"""The benchmark's seeded assembly workloads and their output checks.

A workload is a ladder of genome sizes (*rungs*). One job assembles
every rung once, smallest first, through the public pipeline API; the
benchmark times each rung, so ``run_s`` is the job's host time and the
scaling exponent is fitted over the rungs.  Inputs are a pure function
of ``(workload, seed)``: a ``synthetic_chromosome`` sampled by a
``ReadSimulator`` with error-free reads.  The program under test only
ever sees the reads.

Checks run outside the timed region: every rung's contigs must equal
the software reference assembler's (``assembly/reference_impl.py``, the
only correctness reference there is), plus the workload-specific
checks in :func:`check_rung`.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.analysis import optimizer, verifier
from repro.analysis.tracefile import TraceRecorder
from repro.assembly import reference_impl
from repro.assembly.pipeline import AssemblyResult, _sized_device, assemble_with_pim
from repro.core.platform import PimAssembler
from repro.genome import Read, ReadSimulator, synthetic_chromosome
from repro.observability.session import ObservabilitySession
from repro.runtime.jobs import JobConfig, JobRunner

#: simulated refresh window of the protected workload: short enough
#: that several retention windows (rot draw + REF + ECC scrub pass)
#: elapse per rung, long enough that the retention model draws no upset
PROTECTED_RETENTION_S = 0.004


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a kind of job over a genome-size ladder."""

    name: str
    why: str
    #: ``"bulk"`` (assemble_with_pim), ``"protected"`` (JobRunner with
    #: journal, ECC, resilience and telemetry) or ``"golden"`` (scalar
    #: engine recorded, verified and optimised)
    kind: str
    k: int
    read_length: int
    coverage: float
    #: genome lengths (bp) assembled by one job, ascending
    rungs: tuple[int, ...]
    #: genome length of the set-up warm-up assembly
    warmup: int
    #: draw read start positions from the rung length alone, so the seed
    #: varies only the genome the reads are cut from
    fixed_read_starts: bool = False

    def smoke(self) -> "Workload":
        """The same workload at toy sizes (the benchmark's own tests)."""
        small = max(self.read_length + 20, self.warmup // 2)
        return replace(
            self, name=f"{self.name}-smoke", rungs=(small, 2 * small), warmup=small
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="ladder-bulk",
            why=(
                "bulk engine, 1/2/4 kbp genomes at 5x: the widest ladder and "
                "the largest graph; traverse is ~27% of host time and run_s "
                "grows as genome size^1.5"
            ),
            kind="bulk",
            k=22,
            read_length=101,
            coverage=5.0,
            rungs=(1000, 2000, 4000),
            warmup=300,
        ),
        Workload(
            name="deep-bulk",
            why=(
                "bulk engine, 1/2 kbp genomes at 40x: hashmap hit rounds take "
                "~97% of host time and traverse ~3%, so a traverse change must "
                "show no effect here"
            ),
            kind="bulk",
            k=22,
            read_length=101,
            coverage=40.0,
            rungs=(1000, 2000),
            warmup=200,
        ),
        Workload(
            name="protected-bulk",
            why=(
                "bulk engine through JobRunner with a journal, SECDED ECC, "
                "detect-retry-remap and telemetry: these layers take ~83% of "
                "host time against plain bulk on the same reads"
            ),
            kind="protected",
            k=22,
            read_length=101,
            coverage=10.0,
            rungs=(750, 1500),
            warmup=200,
        ),
        Workload(
            name="golden-scalar",
            why=(
                "scalar engine recorded as an AAP trace, then verified and "
                "optimised: optimise ~63%, recorded assembly ~30% and verify "
                "~6% of host time; the only run of the analysis layer"
            ),
            kind="golden",
            k=11,
            read_length=40,
            coverage=6.0,
            rungs=(80, 160),
            warmup=60,
            # on genomes this short, where the reads land sets the trace
            # length: seeded starts moved sim_commands 12% between seeds,
            # seeded genomes under fixed starts 2%
            fixed_read_starts=True,
        ),
    )
}


# --------------------------------------------------------------------------
# inputs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RungInput:
    """The reads of one rung, generated from the benchmark seed."""

    length: int
    reads: list[Read]
    #: k-mer arrivals the hashmap stage sees
    kmers: int


def make_input(workload: Workload, length: int, seed: int) -> RungInput:
    """Seeded genome and error-free reads for one rung."""
    rung_seed = seed * 100_003 + length
    genome = synthetic_chromosome(length, seed=rung_seed)
    read_seed = length + 1 if workload.fixed_read_starts else rung_seed + 1
    simulator = ReadSimulator(read_length=workload.read_length, seed=read_seed)
    reads = simulator.sample(
        genome, simulator.reads_for_coverage(length, workload.coverage)
    )
    kmers = sum(max(0, len(read) - workload.k + 1) for read in reads)
    return RungInput(length=length, reads=reads, kmers=kmers)


def make_inputs(workload: Workload, seed: int) -> list[RungInput]:
    return [make_input(workload, length, seed) for length in workload.rungs]


def contig_digest(contigs) -> str:
    """Order-free fingerprint of a contig set."""
    digest = hashlib.sha256()
    for sequence in sorted(str(contig.sequence) for contig in contigs):
        digest.update(sequence.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def reference_digest(workload: Workload, rung: RungInput) -> str:
    """Contig fingerprint of the software reference assembler."""
    return contig_digest(reference_impl.assemble(rung.reads, workload.k).contigs)


# --------------------------------------------------------------------------
# one rung of one job
# --------------------------------------------------------------------------


@dataclass
class RungRun:
    """What one timed rung produced (checked after timing)."""

    rung: RungInput
    #: host seconds of the timed region
    seconds: float
    pim: PimAssembler
    result: AssemblyResult
    artefacts: dict[str, Any] = field(default_factory=dict)


def _bulk_rung(workload: Workload, rung: RungInput, workdir: Path) -> RungRun:
    start = time.perf_counter()
    pim = _sized_device(rung.reads, workload.k)
    result = assemble_with_pim(rung.reads, k=workload.k, pim=pim, engine="bulk")
    seconds = time.perf_counter() - start
    return RungRun(rung, seconds, pim, result)


def _protected_rung(workload: Workload, rung: RungInput, workdir: Path) -> RungRun:
    job_dir = Path(tempfile.mkdtemp(prefix="job-", dir=workdir))
    made: list[PimAssembler] = []

    def factory(reads) -> PimAssembler:
        made.append(_sized_device(reads, workload.k))
        return made[-1]

    config = JobConfig(
        k=workload.k,
        engine="bulk",
        ecc="secded",
        retention_interval_s=PROTECTED_RETENTION_S,
        resilience="detect-retry-remap",
    )
    start = time.perf_counter()
    session = ObservabilitySession()
    with session.activate():
        outcome = JobRunner(job_dir / "journal", config, pim_factory=factory).run(
            rung.reads
        )
    seconds = time.perf_counter() - start
    return RungRun(
        rung,
        seconds,
        made[-1],
        outcome.result,
        {"outcome": outcome, "job_dir": job_dir},
    )


def _golden_rung(workload: Workload, rung: RungInput, workdir: Path) -> RungRun:
    start = time.perf_counter()
    pim = _sized_device(rung.reads, workload.k)
    recorder = TraceRecorder(pim, engine="scalar")
    with recorder:
        result = assemble_with_pim(
            rung.reads, k=workload.k, pim=pim, engine="scalar"
        )
    document = recorder.document(workload=workload.name)
    record_s = time.perf_counter() - start
    report = verifier.verify_document(document)
    optimized = optimizer.optimize_document(document)
    seconds = time.perf_counter() - start
    return RungRun(
        rung,
        seconds,
        pim,
        result,
        {
            "document": document,
            "report": report,
            "optimized": optimized,
            "record_s": record_s,
        },
    )


RUNNERS = {"bulk": _bulk_rung, "protected": _protected_rung, "golden": _golden_rung}


def run_job(
    workload: Workload, inputs: list[RungInput], workdir: Path
) -> list[RungRun]:
    """One closed-loop job: every rung once, smallest first."""
    runner = RUNNERS[workload.kind]
    return [runner(workload, rung, workdir) for rung in inputs]


# --------------------------------------------------------------------------
# checks and per-job record
# --------------------------------------------------------------------------


def check_rung(workload: Workload, run: RungRun, reference: str) -> list[str]:
    """Every failed output check of one rung (empty when all pass)."""
    where = f"{workload.name}@{run.rung.length}bp"
    failures = []
    if contig_digest(run.result.contigs) != reference:
        failures.append(f"{where}: contigs differ from the reference assembler")
    outcome = run.artefacts.get("outcome")
    if outcome is not None:
        if not outcome.report.completed:
            failures.append(f"{where}: job did not complete")
        if outcome.report.decisions:
            failures.append(f"{where}: job retried ({outcome.report})")
        integrity = outcome.result.integrity
        if integrity is None or integrity.words_uncorrectable:
            failures.append(f"{where}: uncorrectable words ({integrity})")
    optimized = run.artefacts.get("optimized")
    if optimized is not None:
        if len(run.artefacts["report"]):
            failures.append(f"{where}: recorded trace has verifier findings")
        if not optimized.ok or optimized.identity:
            failures.append(f"{where}: equivalence judge accepted no rewrite")
        elif len(verifier.verify_document(optimized.document)):
            failures.append(f"{where}: optimised trace has verifier findings")
    return failures


def ledger_signature(pim: PimAssembler) -> tuple:
    """Simulated totals that must repeat exactly for a fixed input."""
    totals = pim.stats.totals()
    return (
        totals.time_ns,
        totals.energy_nj,
        tuple(sorted(totals.commands.items())),
    )


@dataclass
class JobRecord:
    """The checked, reduced outcome of one job (no device state kept)."""

    #: host seconds per rung
    seconds: list[float]
    #: :func:`ledger_signature` per rung
    ledgers: list[tuple]
    failures: list[str]
    #: per-layer counts read off the results (see :func:`layer_counts`)
    counts: dict[str, float]

    @property
    def total_s(self) -> float:
        return sum(self.seconds)


def layer_counts(runs: list[RungRun]) -> dict[str, float]:
    """Per-layer work counts of one job, summed over its rungs."""
    counts: dict[str, float] = {
        "hashmap.kmers": 0,
        "hashmap.new_keys": 0,
        "hashmap.sim_ms": 0.0,
        "traverse.sim_ms": 0.0,
        "debruijn.nodes": 0,
        "debruijn.edges": 0,
        "contigs.count": 0,
        "storage.bytes": 0,
        "integrity.rows_encoded": 0,
        "integrity.rows_scrubbed": 0,
        "resilience.events": 0,
        "journal.bytes": 0,
        "analysis.trace_commands": 0,
        "analysis.record_s": 0.0,
        "aap_opt.before": 0,
        "aap_opt.after": 0,
    }
    for run in runs:
        result = run.result
        counts["hashmap.kmers"] += run.rung.kmers
        counts["hashmap.new_keys"] += result.kmer_table_size
        counts["hashmap.sim_ms"] += result.hashmap.time_ns / 1e6
        counts["traverse.sim_ms"] += result.traverse.time_ns / 1e6
        counts["debruijn.nodes"] += result.graph.num_nodes
        counts["debruijn.edges"] += result.graph.num_edges
        counts["contigs.count"] += len(result.contigs)
        counts["storage.bytes"] = max(
            counts["storage.bytes"], run.pim.device.store.nbytes
        )
        for mnemonic, count in run.pim.stats.totals().commands.items():
            name = f"ledger.commands.{mnemonic}"
            counts[name] = counts.get(name, 0) + count
        if result.integrity is not None:
            counts["integrity.rows_encoded"] += result.integrity.rows_encoded
            counts["integrity.rows_scrubbed"] += result.integrity.rows_scrubbed
        if result.resilience is not None:
            totals = result.resilience.totals
            counts["resilience.events"] += (
                totals.detected
                + totals.corrected
                + totals.uncorrected
                + totals.retries
                + totals.verified_ops
                + totals.scrubbed_rows
                + totals.scrub_repairs
            )
        job_dir = run.artefacts.get("job_dir")
        if job_dir is not None:
            counts["journal.bytes"] += sum(
                path.stat().st_size
                for path in job_dir.rglob("*")
                if path.is_file()
            )
        optimized = run.artefacts.get("optimized")
        if optimized is not None:
            counts["analysis.trace_commands"] += len(run.artefacts["document"].trace)
            counts["analysis.record_s"] += run.artefacts["record_s"]
            saved = optimized.savings["commands"]
            counts["aap_opt.before"] += saved["before"]
            counts["aap_opt.after"] += saved["after"]
    return counts


def record_job(
    workload: Workload, runs: list[RungRun], references: list[str]
) -> JobRecord:
    """Check a finished job, reduce it to a record, free its artefacts."""
    try:
        failures = [
            failure
            for run, reference in zip(runs, references)
            for failure in check_rung(workload, run, reference)
        ]
        return JobRecord(
            seconds=[run.seconds for run in runs],
            ledgers=[ledger_signature(run.pim) for run in runs],
            failures=failures,
            counts=layer_counts(runs),
        )
    finally:
        for run in runs:
            job_dir = run.artefacts.get("job_dir")
            if job_dir is not None:
                shutil.rmtree(job_dir, ignore_errors=True)
