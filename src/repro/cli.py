"""Command-line interface for PIM-Assembler.

The subcommands cover the workflows a downstream user needs:

* ``pim-assembler assemble`` — assemble FASTA/FASTQ reads into contigs
  on the PIM functional simulator (or the software golden model);
  ``--trace-out``/``--metrics-out`` additionally record the run's span
  timeline (Perfetto-loadable) and metrics snapshot;
* ``pim-assembler verify-trace`` — dataflow/cost-model verification of
  AAP trace documents recorded with ``assemble --aap-trace-out``
  (exit 1 on findings, 2 on an unreadable document; ``--json`` for
  machine-readable findings);
* ``pim-assembler optimize-trace`` — verified peephole optimisation of
  a recorded trace document: dead-write elimination, copy propagation
  and redundant-precharge removal, every rewrite proven observationally
  equivalent by the symbolic checker before the optimised document is
  written;
* ``pim-assembler inspect`` — post-hoc accounting of a journaled job
  directory (works on finished, crashed and timed-out jobs);
* ``pim-assembler simulate`` — generate a synthetic reference and a
  read set for experiments;
* ``pim-assembler experiments`` — regenerate the paper's tables and
  figures, printing them and/or exporting CSVs.

Installed as a console script (see ``pyproject.toml``); also runnable
as ``python -m repro.cli``.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path


def _build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="pim-assembler",
        description="PIM-Assembler: processing-in-DRAM genome assembly "
        "(DAC 2020 reproduction)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    assemble = sub.add_parser(
        "assemble",
        help="assemble reads into contigs",
        description="--ecc, --retention-interval-s and the --*-out "
        "exports require --engine pim",
    )
    assemble.add_argument(
        "--ecc",
        choices=("off", "secded"),
        help="model retention bit rot in the k-mer store: 'secded' "
        "protects it with SECDED(72,64) + scrubbing, 'off' leaves the "
        "rot uncorrected",
    )
    assemble.add_argument(
        "--retention-interval-s",
        type=float,
        help="simulated refresh window (tREFW) in seconds for the "
        "retention model (default 0.064; implies --ecc secded unless "
        "--ecc off is given)",
    )
    assemble.add_argument(
        "--trace-out",
        help="write the span timeline as Chrome/Perfetto trace-event "
        "JSON (load in ui.perfetto.dev)",
    )
    assemble.add_argument(
        "--metrics-out",
        help="write the metrics snapshot (counters, histograms, power "
        "summary and gauges, sub-array heatmap) as JSON",
    )
    assemble.add_argument("reads", help="FASTA or FASTQ file of reads")
    assemble.add_argument("-o", "--output", required=True, help="contig FASTA")
    assemble.add_argument("-k", type=int, default=21, help="k-mer length")
    assemble.add_argument(
        "--min-count", type=int, default=1, help="k-mer frequency threshold"
    )
    assemble.add_argument(
        "--min-contig", type=int, default=0, help="drop shorter contigs"
    )
    assemble.add_argument(
        "--engine",
        choices=("pim", "software"),
        default="pim",
        help="assembly engine (default: the PIM functional simulator)",
    )
    assemble.add_argument(
        "--exec-engine",
        choices=("scalar", "bulk"),
        default="scalar",
        help="PIM simulator execution engine: 'scalar' issues commands "
        "one at a time (golden model), 'bulk' batches them as "
        "bit-plane gangs (same results, much faster simulation)",
    )
    assemble.add_argument(
        "--lenient",
        action="store_true",
        help="quarantine malformed input records instead of aborting "
        "(the count is reported in the summary)",
    )
    assemble.add_argument(
        "--job-dir",
        help="journal the run as a crash-tolerant job in this directory "
        "(kill -9 safe; continue with --resume; --engine pim only)",
    )
    assemble.add_argument(
        "--resume",
        action="store_true",
        help="resume the job journaled in --job-dir from its last "
        "completed stage boundary",
    )
    assemble.add_argument(
        "--stage-timeout",
        type=float,
        help="per-stage deadline budget in seconds (job stays resumable "
        "after a timeout; requires --job-dir)",
    )
    assemble.add_argument(
        "--job-timeout",
        type=float,
        help="whole-job deadline budget in seconds (requires --job-dir)",
    )
    assemble.add_argument(
        "--aap-trace-out",
        help="record the run's AAP command stream as a verifiable trace "
        "document for `verify-trace` (--engine pim, no --job-dir)",
    )
    assemble.add_argument(
        "--aap-opt",
        action="store_true",
        help="optimise the recorded AAP stream (verified peephole "
        "passes), replay it on a fresh device and assert "
        "the final row state bit-identical (--engine pim, "
        "--exec-engine scalar, no --job-dir/--ecc)",
    )

    verify_trace = sub.add_parser(
        "verify-trace",
        help="verify recorded AAP trace documents (dataflow, row "
        "designation, cost-model consistency); exit 1 on findings",
    )
    verify_trace.add_argument(
        "traces",
        nargs="+",
        help="trace document(s) written by `assemble --aap-trace-out`",
    )
    verify_trace.add_argument(
        "--max-findings",
        type=int,
        default=50,
        help="cap on findings printed per document (all are counted)",
    )
    verify_trace.add_argument(
        "--json",
        action="store_true",
        help="emit one machine-readable JSON report on stdout instead "
        "of the human-readable text (findings, counts, exit mapping)",
    )

    optimize_trace = sub.add_parser(
        "optimize-trace",
        help="optimise a recorded AAP trace document with translation-"
        "validated peephole passes; exit 1 when the input has findings "
        "or the equivalence checker rejects the rewrite",
    )
    optimize_trace.add_argument(
        "trace",
        help="trace document written by `assemble --aap-trace-out`",
    )
    optimize_trace.add_argument(
        "-o",
        "--output",
        help="where to write the optimised document "
        "(default: <trace>.opt.json)",
    )

    inspect_cmd = sub.add_parser(
        "inspect",
        help="per-stage accounting of a journaled job directory "
        "(works on crashed and timed-out jobs)",
    )
    inspect_cmd.add_argument(
        "job_dir",
        help="job directory (from --job-dir)",
    )
    inspect_cmd.add_argument(
        "--top-k",
        type=int,
        default=8,
        help="how many of the hottest command mnemonics to list",
    )

    simulate = sub.add_parser("simulate", help="generate reference + reads")
    simulate.add_argument("-o", "--output-dir", required=True)
    simulate.add_argument("--length", type=int, default=10_000)
    simulate.add_argument("--coverage", type=float, default=30.0)
    simulate.add_argument("--read-length", type=int, default=101)
    simulate.add_argument("--error-rate", type=float, default=0.0)
    simulate.add_argument("--seed", type=int, default=14)

    experiments = sub.add_parser(
        "experiments", help="regenerate the paper's tables and figures"
    )
    experiments.add_argument(
        "--csv-dir", help="also export CSVs into this directory"
    )
    experiments.add_argument(
        "--report", help="write a full markdown report (with claim checks)"
    )
    experiments.add_argument(
        "--only",
        choices=("fig3b", "table1", "fig9", "fig10", "fig11", "area"),
        help="run a single experiment",
    )
    return parser


def _load_reads(path: str, strict: bool = True):
    """Load FASTA/FASTQ reads in one pass over one open stream.

    The format is sniffed from the first non-blank byte (``@`` → FASTQ,
    ``>`` → FASTA) and the same stream is then parsed once — the file
    is never slurped into memory and never read twice.  All failure
    modes (missing file, empty file, wrong format, malformed records,
    non-ACGT bases) raise :class:`~repro.errors.InputError`, which
    ``main()`` maps to a one-line message and a clean nonzero exit.

    Returns:
        ``(reads, report)`` — the reads plus the lenient-mode
        :class:`~repro.genome.io_fasta.ParseReport` (quarantine tally;
        always zero when ``strict=True``).
    """
    from repro.errors import InputError
    from repro.genome.io_fasta import ParseReport, parse_fasta, parse_fastq
    from repro.genome.reads import Read
    from repro.genome.sequence import DnaSequence

    try:
        stream = open(path, "r", encoding="ascii")
    except FileNotFoundError:
        raise InputError(f"reads file not found: {path}")
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}")

    report = ParseReport()
    reads = []
    with stream:
        try:
            first = ""
            while True:
                line = stream.readline()
                if not line:
                    break
                stripped = line.strip()
                if stripped:
                    first = stripped[0]
                    break
            if not first:
                raise InputError(f"no reads found in {path}: file is empty")
            stream.seek(0)
            if first == "@":
                records = parse_fastq(stream, strict=strict, report=report)
            elif first == ">":
                records = parse_fasta(stream, strict=strict, report=report)
            else:
                raise InputError(
                    f"{path} is neither FASTA nor FASTQ "
                    f"(first byte {first!r}, expected '>' or '@')"
                )
            for i, record in enumerate(records):
                reads.append(
                    Read(record.name, DnaSequence(record.sequence), start=i)
                )
        except UnicodeDecodeError as exc:
            raise InputError(f"{path} is not ASCII text: {exc}")
        except ValueError as exc:
            raise InputError(f"malformed reads in {path}: {exc}")
    if not reads:
        raise InputError(f"no reads found in {path}")
    return reads, report


def _require_positive_seconds(flag: str, value: "float | None") -> None:
    from repro.errors import InputError

    if value is not None and not (math.isfinite(value) and value > 0):
        raise InputError(
            f"{flag} must be a positive number of seconds (got {value})"
        )


def _cmd_assemble(args: argparse.Namespace) -> int:
    from repro.assembly import assemble, assemble_with_pim
    from repro.errors import InputError
    from repro.genome.io_fasta import FastaRecord, write_fasta
    from repro.genome.kmer import MAX_PACKED_K

    if args.k < 2:
        raise InputError(f"--k must be >= 2 (got {args.k})")
    if args.k > MAX_PACKED_K:
        raise InputError(
            f"--k must be <= {MAX_PACKED_K}, the 64-bit k-mer packing "
            f"limit (got {args.k})"
        )
    if args.min_count < 1:
        raise InputError(f"--min-count must be >= 1 (got {args.min_count})")
    if args.min_contig < 0:
        raise InputError(f"--min-contig must be >= 0 (got {args.min_contig})")
    if args.resume and not args.job_dir:
        raise InputError("--resume requires --job-dir")
    output = Path(args.output)
    if output.is_dir():
        raise InputError(f"-o: {output} is a directory, not a file path")
    if not output.parent.is_dir():
        raise InputError(f"-o: directory {output.parent} does not exist")
    _require_positive_seconds("--stage-timeout", args.stage_timeout)
    _require_positive_seconds("--job-timeout", args.job_timeout)
    _require_positive_seconds(
        "--retention-interval-s", args.retention_interval_s
    )
    if (args.ecc or args.retention_interval_s) and args.engine != "pim":
        raise InputError("--ecc/--retention-interval-s require --engine pim")
    if (args.stage_timeout or args.job_timeout) and not args.job_dir:
        raise InputError("--stage-timeout/--job-timeout require --job-dir")
    if args.job_dir and args.engine != "pim":
        raise InputError("--job-dir requires --engine pim")
    if (args.trace_out or args.metrics_out) and args.engine != "pim":
        raise InputError("--trace-out/--metrics-out require --engine pim")
    if args.aap_trace_out and args.engine != "pim":
        raise InputError("--aap-trace-out requires --engine pim")
    if args.aap_trace_out and args.job_dir:
        raise InputError(
            "--aap-trace-out records one in-process run and cannot "
            "follow a job across resumes; drop --job-dir"
        )
    if args.aap_opt:
        if args.engine != "pim":
            raise InputError("--aap-opt requires --engine pim")
        if args.exec_engine != "scalar":
            raise InputError(
                "--aap-opt requires --exec-engine scalar (the bulk "
                "engine records a partial stream, not a program)"
            )
        if args.job_dir:
            raise InputError(
                "--aap-opt records one in-process run and cannot "
                "follow a job across resumes; drop --job-dir"
            )
        if args.ecc or args.retention_interval_s:
            raise InputError(
                "--aap-opt cannot optimise integrity-instrumented "
                "streams (REF/ECC commands carry no peephole semantics)"
            )

    reads, parse_report = _load_reads(args.reads, strict=not args.lenient)
    if parse_report.quarantined:
        print(
            f"input: quarantined {parse_report.quarantined} malformed "
            f"record(s) ({'; '.join(parse_report.reasons[:3])}"
            f"{', ...' if len(parse_report.reasons) > 3 else ''})"
        )

    if args.engine == "pim":
        from contextlib import ExitStack

        session = None
        if args.trace_out or args.metrics_out:
            from repro.observability.session import ObservabilitySession

            session = ObservabilitySession()
        with ExitStack() as stack:
            if session is not None:
                stack.enter_context(session.activate())
            if args.job_dir:
                from repro.runtime.jobs import JobConfig, JobRunner

                runner = JobRunner(
                    args.job_dir,
                    JobConfig(
                        k=args.k,
                        min_count=args.min_count,
                        min_contig_length=args.min_contig,
                        engine=args.exec_engine,
                        ecc=args.ecc,
                        retention_interval_s=args.retention_interval_s,
                        stage_timeout_s=args.stage_timeout,
                        job_timeout_s=args.job_timeout,
                    ),
                )
                job = runner.run(reads, resume=args.resume)
                outcome = job.result
                pim = runner._pim
                print(f"job: {job.report}")
            else:
                from repro.assembly.pipeline import _sized_device
                from repro.core.integrity import IntegrityConfig

                pim = _sized_device(reads, args.k)
                integrity = IntegrityConfig.requested(
                    args.ecc, args.retention_interval_s
                )
                if integrity is not None:
                    pim.attach_integrity(integrity)
                recorder = None
                if args.aap_trace_out or args.aap_opt:
                    from repro.analysis.tracefile import TraceRecorder

                    recorder = TraceRecorder(pim, engine=args.exec_engine)
                    stack.enter_context(recorder)
                outcome = assemble_with_pim(
                    reads,
                    k=args.k,
                    pim=pim,
                    min_count=args.min_count,
                    min_contig_length=args.min_contig,
                    engine=args.exec_engine,
                )
                if recorder is not None:
                    doc = recorder.document(
                        reads=args.reads, k=args.k, command="assemble"
                    )
                    if args.aap_trace_out:
                        from repro.analysis.tracefile import save_document

                        path = save_document(args.aap_trace_out, doc)
                        print(
                            f"aap trace: wrote {len(doc.trace)} commands / "
                            f"{len(doc.trace.charges)} charges -> {path}"
                        )
                    if args.aap_opt:
                        _replay_aap_opt(doc, reads, args.k, pim)
        if session is not None:
            for path in session.export(
                trace_path=args.trace_out,
                metrics_path=args.metrics_out,
                pim=pim,
            ):
                print(f"observability: wrote {path}")
        contigs = outcome.contigs
        total_ns = outcome.total_time_ns
        hashmap_share = outcome.hashmap.time_ns / total_ns if total_ns else 0.0
        print(
            f"simulated PIM time: {total_ns / 1e6:.2f} ms "
            f"({hashmap_share:.0%} hashmap)"
        )
        if outcome.integrity is not None:
            itg = outcome.integrity
            print(
                f"integrity: {itg.windows} refresh windows / "
                f"{itg.flips_injected} upsets / "
                f"{itg.words_corrected} corrected / "
                f"{itg.words_uncorrectable} uncorrectable"
            )
    else:
        contigs = assemble(
            reads,
            k=args.k,
            min_count=args.min_count,
            min_contig_length=args.min_contig,
        ).contigs

    write_fasta(
        args.output,
        [FastaRecord(c.name, str(c.sequence)) for c in contigs],
    )
    total = sum(len(c) for c in contigs)
    print(f"{len(contigs)} contigs / {total} bp -> {args.output}")
    return 0


def _cmd_verify_trace(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.findings import EXIT_FINDINGS, EXIT_OK
    from repro.analysis.tracefile import load_document
    from repro.analysis.verifier import verify_document
    from repro.errors import InputError

    if args.max_findings < 1:
        raise InputError(
            f"--max-findings must be >= 1 (got {args.max_findings})"
        )
    total = 0
    documents = []
    for path in args.traces:
        doc = load_document(path)
        report = verify_document(doc, source=path)
        total += len(report)
        if args.json:
            documents.append(
                {
                    "path": path,
                    "engine": doc.engine,
                    "commands": len(doc.trace),
                    "charges": len(doc.trace.charges),
                    **report.to_json(),
                }
            )
            continue
        shown = report.findings[: args.max_findings]
        for finding in shown:
            print(str(finding), file=sys.stderr)
        if len(report) > len(shown):
            print(
                f"... {len(report) - len(shown)} more finding(s) in {path}",
                file=sys.stderr,
            )
        status = "clean" if report.ok else f"{len(report)} finding(s)"
        print(
            f"{path}: {doc.engine} trace, {len(doc.trace)} commands, "
            f"{len(doc.trace.charges)} charges — {status}"
        )
    if args.json:
        print(
            json.dumps(
                {
                    "documents": documents,
                    "total_findings": total,
                    "ok": total == 0,
                },
                indent=1,
            )
        )
    return EXIT_OK if total == 0 else EXIT_FINDINGS


def _replay_aap_opt(doc, reads, k: int, pim) -> None:
    """Optimise the recorded stream, replay it, assert state identity.

    Raises:
        ReproError: the equivalence checker rejected the rewrite, or
            the replayed final row state diverged from the original run
            (both indicate an optimiser bug — the run's own results are
            unaffected).
    """
    from repro.analysis.optimizer import optimize_document
    from repro.assembly.pipeline import _sized_device
    from repro.core.scheduler import charge_stream
    from repro.core.trace import replay
    from repro.errors import ReproError

    result = optimize_document(doc, source="<assemble>")
    for finding in result.report:
        print(str(finding), file=sys.stderr)
    if not result.ok:
        raise ReproError(
            "aap-opt: the equivalence checker rejected the optimised "
            "stream (see findings above)"
        )
    savings = result.savings
    fresh = _sized_device(reads, k)
    replay(result.document.trace, fresh.controller)
    keys = list(pim.device.subarray_keys())
    diverged = [
        key
        for key in keys
        if not (
            pim.device.subarray_at(key).snapshot()
            == fresh.device.subarray_at(key).snapshot()
        ).all()
    ]
    if diverged:
        raise ReproError(
            f"aap-opt: optimised replay diverged from the original run "
            f"on {len(diverged)} of {len(keys)} sub-array(s)"
        )
    timing = doc.timing_parameters()
    before = charge_stream(doc.trace, timing=timing)
    after = charge_stream(result.document.trace, timing=timing)
    cmd = savings["commands"]
    print(
        f"aap-opt: {cmd['before']} -> {cmd['after']} commands "
        f"(-{cmd['reduction']:.1%}), "
        f"energy -{savings['energy_nj']['reduction']:.1%}"
    )
    print(
        f"aap-opt: replay bit-identical on {len(keys)} sub-array(s); "
        f"coalesced makespan {before.makespan_ns / 1e3:.1f} -> "
        f"{after.makespan_ns / 1e3:.1f} us"
    )


def _cmd_optimize_trace(args: argparse.Namespace) -> int:
    from repro.analysis.findings import EXIT_FINDINGS, EXIT_OK
    from repro.analysis.optimizer import optimize_document
    from repro.analysis.tracefile import load_document, save_document
    from repro.analysis.verifier import verify_document
    from repro.core.scheduler import charge_stream

    doc = load_document(args.trace)
    result = optimize_document(doc, source=args.trace)
    for finding in result.report:
        print(str(finding), file=sys.stderr)
    if not result.ok:
        print(
            f"{args.trace}: rewrite REJECTED — nothing written "
            "(the original document is untouched)"
        )
        return EXIT_FINDINGS

    out = args.output or f"{args.trace}.opt.json"
    recheck = verify_document(result.document, source=out)
    if not recheck.ok:
        for finding in recheck.findings:
            print(str(finding), file=sys.stderr)
        print(
            f"{args.trace}: optimised stream fails re-verification — "
            "nothing written"
        )
        return EXIT_FINDINGS
    path = save_document(out, result.document)

    if result.identity:
        print(
            f"{args.trace}: returned unchanged "
            f"({len(doc.trace)} commands) -> {path}"
        )
        return EXIT_OK if result.report.ok else EXIT_FINDINGS

    savings = result.savings
    cmd = savings["commands"]
    energy = savings["energy_nj"]
    timing = doc.timing_parameters()
    before = charge_stream(doc.trace, timing=timing)
    after = charge_stream(result.document.trace, timing=timing)
    print(
        f"{args.trace}: {cmd['before']} -> {cmd['after']} commands "
        f"(-{cmd['reduction']:.1%}), "
        f"energy {energy['before']:.0f} -> {energy['after']:.0f} nJ "
        f"(-{energy['reduction']:.1%})"
    )
    print(
        f"{args.trace}: equivalence proven, re-verification clean; "
        f"coalesced makespan {before.makespan_ns / 1e3:.1f} -> "
        f"{after.makespan_ns / 1e3:.1f} us -> {path}"
    )
    return EXIT_OK if result.report.ok else EXIT_FINDINGS


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.errors import InputError
    from repro.observability.inspect import render_job_inspection

    if args.top_k < 1:
        raise InputError(f"--top-k must be >= 1 (got {args.top_k})")
    print(render_job_inspection(args.job_dir, top_k=args.top_k))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.errors import InputError
    from repro.genome.io_fasta import FastaRecord, FastqRecord, write_fasta, write_fastq
    from repro.genome.reads import ReadSimulator
    from repro.genome.reference import synthetic_chromosome

    if args.length < 1:
        raise InputError(f"--length must be >= 1 (got {args.length})")
    if args.read_length < 1:
        raise InputError(f"--read-length must be >= 1 (got {args.read_length})")
    if args.read_length > args.length:
        raise InputError(
            f"--read-length must be <= --length {args.length} "
            f"(got {args.read_length})"
        )
    if not (math.isfinite(args.coverage) and args.coverage > 0):
        raise InputError(
            f"--coverage must be a positive number (got {args.coverage})"
        )
    if not 0.0 <= args.error_rate < 1.0:
        raise InputError(f"--error-rate must be in [0, 1) (got {args.error_rate})")

    out = Path(args.output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputError(
            f"-o: cannot create directory {out} ({exc.strerror})"
        ) from exc
    reference = synthetic_chromosome(args.length, seed=args.seed)
    write_fasta(out / "reference.fa", [FastaRecord("chr_synth", str(reference))])

    sim = ReadSimulator(
        read_length=args.read_length,
        seed=args.seed + 1,
        error_rate=args.error_rate,
    )
    reads = sim.sample(
        reference, sim.reads_for_coverage(args.length, args.coverage)
    )
    write_fastq(
        out / "reads.fq",
        [FastqRecord(r.name, str(r.sequence)) for r in reads],
    )
    print(
        f"reference.fa ({args.length} bp) + reads.fq ({len(reads)} reads) "
        f"-> {out}/"
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.eval import (
        chr14_workload,
        run_all,
        run_area_study,
        run_memory_wall_study,
        run_reliability_table,
        run_throughput_sweep,
        run_tradeoff_sweep,
    )
    from repro.eval.reliability import format_table
    from repro.eval.tables import (
        format_execution,
        format_memory_wall,
        format_speedups,
        format_throughput,
        format_tradeoff,
    )
    from repro.platforms import assembly_platforms

    def want(name: str) -> bool:
        return args.only is None or args.only == name

    if want("fig3b"):
        print("== Fig. 3b: raw throughput ==")
        print(format_throughput(run_throughput_sweep()))
    if want("table1"):
        print("\n== Table I: process variation ==")
        print(format_table(run_reliability_table()))
    if want("area"):
        print("\n== Area overhead ==")
        print("\n".join(run_area_study().breakdown_lines()))
    if want("fig9"):
        print("\n== Fig. 9: chr14 execution time & power ==")
        platforms = assembly_platforms()
        for k in (16, 22, 26, 32):
            results = run_all(platforms, chr14_workload(k))
            print(format_execution(results))
            print("      " + format_speedups(results))
    if want("fig10"):
        print("\n== Fig. 10: power/delay vs Pd ==")
        print(format_tradeoff(run_tradeoff_sweep()))
    if want("fig11"):
        print("\n== Fig. 11: MBR / RUR ==")
        print(format_memory_wall(run_memory_wall_study()))

    if args.csv_dir:
        from repro.eval.export import export_all

        written = export_all(args.csv_dir)
        print(f"\nwrote {len(written)} CSV files to {args.csv_dir}/")
    if args.report:
        from repro.eval.reporting import write_report

        path = write_report(args.report)
        print(f"wrote report to {path}")
    return 0


#: exit codes of the typed error families (0 = success)
EXIT_INPUT_ERROR = 2
EXIT_RUNTIME_ERROR = 3


def main(argv: list[str] | None = None) -> int:
    """CLI entry point.

    Typed library errors become one-line ``error: ...`` messages on
    stderr with a stable nonzero exit code — never a traceback:
    :class:`~repro.errors.InputError` exits ``2`` (unusable input),
    and every other
    :class:`~repro.errors.ReproError` exits ``3`` (e.g. a
    :class:`~repro.errors.StageTimeoutError`, after which the job
    journal remains resumable).
    """
    from repro.errors import InputError, ReproError

    args = _build_parser().parse_args(argv)
    handlers = {
        "assemble": _cmd_assemble,
        "verify-trace": _cmd_verify_trace,
        "optimize-trace": _cmd_optimize_trace,
        "inspect": _cmd_inspect,
        "simulate": _cmd_simulate,
        "experiments": _cmd_experiments,
    }
    try:
        return handlers[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME_ERROR


if __name__ == "__main__":
    sys.exit(main())
