"""The command-line interface, end to end."""

import pytest

from repro.cli import main
from repro.genome.io_fasta import read_fasta


@pytest.fixture()
def simulated(tmp_path):
    out = tmp_path / "sim"
    rc = main(
        [
            "simulate",
            "-o",
            str(out),
            "--length",
            "1500",
            "--coverage",
            "25",
            "--read-length",
            "60",
            "--seed",
            "5",
        ]
    )
    assert rc == 0
    return out


class TestSimulate:
    def test_writes_reference_and_reads(self, simulated):
        assert (simulated / "reference.fa").exists()
        assert (simulated / "reads.fq").exists()
        ref = read_fasta(simulated / "reference.fa")[0]
        assert len(ref.sequence) == 1500

    def test_paired_mode(self, tmp_path):
        out = tmp_path / "paired"
        rc = main(
            [
                "simulate",
                "-o",
                str(out),
                "--length",
                "2000",
                "--coverage",
                "20",
                "--read-length",
                "60",
                "--paired",
            ]
        )
        assert rc == 0
        text = (out / "reads.fq").read_text()
        assert "/1" in text and "/2" in text


class TestAssemble:
    @pytest.mark.parametrize("engine", ["pim", "software", "bidirected"])
    def test_engines_produce_contigs(self, simulated, tmp_path, engine, capsys):
        out = tmp_path / f"{engine}.fa"
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(out),
                "-k",
                "17",
                "--engine",
                engine,
            ]
        )
        assert rc == 0
        contigs = read_fasta(out)
        assert contigs
        total = sum(len(c.sequence) for c in contigs)
        assert total > 1000
        captured = capsys.readouterr()
        assert "contigs" in captured.out

    def test_pim_engine_reports_simulated_time(self, simulated, tmp_path, capsys):
        out = tmp_path / "c.fa"
        main(
            ["assemble", str(simulated / "reads.fq"), "-o", str(out), "-k", "15"]
        )
        assert "simulated PIM time" in capsys.readouterr().out

    def test_correction_flag(self, simulated, tmp_path, capsys):
        out = tmp_path / "c.fa"
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(out),
                "-k",
                "17",
                "--engine",
                "software",
                "--correct",
            ]
        )
        assert rc == 0
        assert "correction:" in capsys.readouterr().out

    def test_fasta_input(self, tmp_path):
        reads_fa = tmp_path / "reads.fa"
        reads_fa.write_text(">r0\nACGTACGTACGTACGTACGT\n>r1\nCGTACGTACGTACGTACGTA\n")
        out = tmp_path / "c.fa"
        rc = main(
            [
                "assemble",
                str(reads_fa),
                "-o",
                str(out),
                "-k",
                "9",
                "--engine",
                "software",
            ]
        )
        assert rc == 0

    def test_empty_input_exits_cleanly(self, tmp_path, capsys):
        empty = tmp_path / "empty.fa"
        empty.write_text("")
        rc = main(["assemble", str(empty), "-o", str(tmp_path / "o.fa")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "no reads found" in err

    def test_lenient_quarantines_and_reports(self, tmp_path, capsys):
        reads_fq = tmp_path / "reads.fq"
        reads_fq.write_text(
            "@good\nACGTACGTACGTACGT\n+\nIIIIIIIIIIIIIIII\n"
            "@bad\nACGTNNNNACGTACGT\n+\nIIIIIIIIIIIIIIII\n"
            "@good2\nCGTACGTACGTACGTA\n+\nIIIIIIIIIIIIIIII\n"
        )
        rc = main(
            [
                "assemble",
                str(reads_fq),
                "-o",
                str(tmp_path / "o.fa"),
                "-k",
                "9",
                "--engine",
                "software",
                "--lenient",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "quarantined 1 malformed record(s)" in out


class TestFailurePaths:
    """Every bad input exits nonzero with one clean line, no traceback."""

    def _run(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc != 0
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        return rc, captured.err

    def test_missing_input_file(self, tmp_path, capsys):
        rc, err = self._run(
            capsys,
            ["assemble", str(tmp_path / "nope.fq"), "-o", str(tmp_path / "o.fa")],
        )
        assert rc == 2
        assert "not found" in err

    def test_unrecognised_format(self, tmp_path, capsys):
        bad = tmp_path / "reads.txt"
        bad.write_text("ACGTACGT\nACGTACGT\n")
        rc, err = self._run(
            capsys, ["assemble", str(bad), "-o", str(tmp_path / "o.fa")]
        )
        assert rc == 2
        assert "neither FASTA nor FASTQ" in err

    def test_malformed_fasta(self, tmp_path, capsys):
        bad = tmp_path / "reads.fa"
        bad.write_text("ACGT\n>r1\nACGT\n")  # sequence before any header
        rc, err = self._run(
            capsys, ["assemble", str(bad), "-o", str(tmp_path / "o.fa")]
        )
        assert rc == 2
        assert "malformed" in err

    def test_truncated_fastq(self, tmp_path, capsys):
        bad = tmp_path / "reads.fq"
        bad.write_text("@r0\nACGTACGTACGT\n+\nIIIIIIIIIIII\n@r1\nACGT\n")
        rc, err = self._run(
            capsys, ["assemble", str(bad), "-o", str(tmp_path / "o.fa")]
        )
        assert rc == 2
        assert "truncated" in err

    def test_invalid_bases_strict(self, tmp_path, capsys):
        bad = tmp_path / "reads.fa"
        bad.write_text(">r0\nACGTNNACGTACGTACGT\n")
        rc, err = self._run(
            capsys, ["assemble", str(bad), "-o", str(tmp_path / "o.fa")]
        )
        assert rc == 2

    def test_bad_k(self, tmp_path, capsys):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r0\nACGTACGTACGTACGT\n")
        rc, err = self._run(
            capsys,
            ["assemble", str(reads), "-o", str(tmp_path / "o.fa"), "-k", "1"],
        )
        assert rc == 2
        assert "--k" in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--stage-timeout", "0"),
            ("--stage-timeout", "-3"),
            ("--job-timeout", "0"),
            ("--job-timeout", "-0.5"),
        ],
    )
    def test_nonpositive_deadline_budgets_exit_2(
        self, tmp_path, capsys, flag, value
    ):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r0\nACGTACGTACGTACGT\n")
        rc, err = self._run(
            capsys,
            [
                "assemble",
                str(reads),
                "-o",
                str(tmp_path / "o.fa"),
                "--job-dir",
                str(tmp_path / "job"),
                flag,
                value,
            ],
        )
        assert rc == 2
        assert flag in err and "positive" in err

    def test_resume_without_job_dir(self, tmp_path, capsys):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r0\nACGTACGTACGTACGT\n")
        rc, err = self._run(
            capsys,
            ["assemble", str(reads), "-o", str(tmp_path / "o.fa"), "--resume"],
        )
        assert rc == 2
        assert "--job-dir" in err

    def test_resume_without_journal(self, tmp_path, capsys):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r0\nACGTACGTACGTACGTACGTACGT\n")
        rc, err = self._run(
            capsys,
            [
                "assemble",
                str(reads),
                "-o",
                str(tmp_path / "o.fa"),
                "-k",
                "9",
                "--job-dir",
                str(tmp_path / "job"),
                "--resume",
            ],
        )
        assert rc == 3
        assert "journal" in err


class TestJobCli:
    def test_job_dir_roundtrip(self, tmp_path, capsys):
        reads = tmp_path / "reads.fa"
        reads.write_text(
            ">r0\nACGTACGTACGTACGTACGTACGTACGTACGT\n"
            ">r1\nCGTACGTACGTACGTACGTACGTACGTACGTA\n"
        )
        out = tmp_path / "o.fa"
        rc = main(
            [
                "assemble",
                str(reads),
                "-o",
                str(out),
                "-k",
                "9",
                "--job-dir",
                str(tmp_path / "job"),
            ]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "job:" in captured and "completed=True" in captured
        first = read_fasta(out)

        # a resume of the finished job re-emits the identical contigs
        rc = main(
            [
                "assemble",
                str(reads),
                "-o",
                str(out),
                "-k",
                "9",
                "--job-dir",
                str(tmp_path / "job"),
                "--resume",
            ]
        )
        assert rc == 0
        again = read_fasta(out)
        assert [(r.name, r.sequence) for r in again] == [
            (r.name, r.sequence) for r in first
        ]


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.strip() == f"pim-assembler {repro.__version__}"


class TestObservabilityCli:
    def test_trace_and_metrics_out_write_valid_files(
        self, simulated, tmp_path, capsys
    ):
        import json

        from repro.observability.export import validate_trace_file

        trace = tmp_path / "trace.json"
        metrics = tmp_path / "metrics.json"
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(tmp_path / "c.fa"),
                "-k",
                "15",
                "--trace-out",
                str(trace),
                "--metrics-out",
                str(metrics),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert f"observability: wrote {trace}" in out
        assert validate_trace_file(trace) == []
        doc = json.loads(metrics.read_text())
        assert doc["metrics"]["pim.commands.total"]["value"] > 0
        assert doc["subarray_heatmap"]

    def test_trace_out_requires_pim_engine(self, simulated, tmp_path, capsys):
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(tmp_path / "c.fa"),
                "--engine",
                "software",
                "--trace-out",
                str(tmp_path / "t.json"),
            ]
        )
        assert rc == 2
        assert "--engine pim" in capsys.readouterr().err

    def test_inspect_renders_job_accounting(self, simulated, tmp_path, capsys):
        job_dir = tmp_path / "job"
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(tmp_path / "c.fa"),
                "-k",
                "15",
                "--job-dir",
                str(job_dir),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        rc = main(["inspect", str(job_dir), "--top-k", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-stage accounting" in out
        assert "hashmap" in out and "traverse" in out
        assert "hottest mnemonics (top 3)" in out

    def test_inspect_missing_job_dir_exits_2(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path / "nothing-here")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "no job journal" in err

    def test_inspect_bad_top_k(self, tmp_path, capsys):
        rc = main(["inspect", str(tmp_path), "--top-k", "0"])
        assert rc == 2
        assert "--top-k" in capsys.readouterr().err


class TestScaffold:
    def test_scaffolds_fragmented_contigs(self, tmp_path, capsys):
        """Simulate paired reads, hand the CLI two gap-separated
        contigs, and check it joins them with an N run."""
        from repro.assembly.contigs import Contig
        from repro.genome.io_fasta import (
            FastaRecord,
            FastqRecord,
            read_fasta,
            write_fasta,
            write_fastq,
        )
        from repro.genome.paired import PairedReadSimulator
        from repro.genome.reference import synthetic_chromosome

        reference = synthetic_chromosome(3000, seed=321)
        contigs_fa = tmp_path / "contigs.fa"
        write_fasta(
            contigs_fa,
            [
                FastaRecord("contigA", str(reference[0:1200])),
                FastaRecord("contigB", str(reference[1400:2600])),
            ],
        )
        sim = PairedReadSimulator(
            read_length=60, insert_mean=500, insert_sd=30, seed=322
        )
        pairs = sim.sample(reference, sim.pairs_for_coverage(3000, 30))
        reads_fq = tmp_path / "pairs.fq"
        records = []
        for pair in pairs:
            records.append(FastqRecord(pair.left.name, str(pair.left.sequence)))
            records.append(FastqRecord(pair.right.name, str(pair.right.sequence)))
        write_fastq(reads_fq, records)

        out = tmp_path / "scaffolds.fa"
        rc = main(
            [
                "scaffold",
                str(contigs_fa),
                str(reads_fq),
                "-o",
                str(out),
                "--insert-mean",
                "500",
            ]
        )
        assert rc == 0
        scaffolds = read_fasta(out)
        assert len(scaffolds) == 1
        assert "N" in scaffolds[0].sequence
        assert "1 joins" in capsys.readouterr().out

    def test_rejects_unpaired_input(self, tmp_path):
        from repro.genome.io_fasta import FastqRecord, write_fastq

        contigs_fa = tmp_path / "c.fa"
        contigs_fa.write_text(">c0\nACGTACGTACGTACGTACGTACGTACGT\n")
        reads_fq = tmp_path / "r.fq"
        write_fastq(reads_fq, [FastqRecord("solo", "ACGTACGT")])
        rc = main(
            [
                "scaffold",
                str(contigs_fa),
                str(reads_fq),
                "-o",
                str(tmp_path / "s.fa"),
            ]
        )
        assert rc == 2


class TestServe:
    """The multi-tenant batch driver and its exit-code taxonomy."""

    def write_reads(self, tmp_path, seed=11, name="reads.fa"):
        import random

        rng = random.Random(seed)
        genome = "".join(rng.choice("ACGT") for _ in range(250))
        records = [
            f">r{i}\n{genome[i : i + 50]}"
            for i in range(0, 200, 11)
        ]
        path = tmp_path / name
        path.write_text("\n".join(records) + "\n")
        return path

    def write_manifest(self, tmp_path, payload, name="batch.json"):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_batch_completes_exit_0_with_outputs(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "jobs": [
                    {
                        "tenant": "acme",
                        "name": "a",
                        "reads": reads.name,
                        "k": 11,
                        "output": "a.fa",
                    },
                    {
                        "tenant": "beta",
                        "name": "b",
                        "reads": reads.name,
                        "k": 11,
                        "engine": "bulk",
                        "deadline_s": 600,
                    },
                ],
            },
        )
        rc = main(["serve", str(manifest)])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "a.fa").exists()
        assert "2/2 completed" in out
        assert (manifest.parent / "batch.json.jobs").is_dir()

    def test_overload_sheds_typed_and_exits_4(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        jobs = [
            {"tenant": "acme", "name": f"j{i}", "reads": reads.name, "k": 11}
            for i in range(3)
        ]
        manifest = self.write_manifest(
            tmp_path,
            {"tenants": {"acme": {"max_queued": 2}}, "jobs": jobs},
        )
        rc = main(["serve", str(manifest)])
        out = capsys.readouterr().out
        assert rc == 4
        assert "shed: acme/j2" in out
        assert "[tenant-queue-full]" in out
        assert "2/2 completed" in out

    def test_job_failure_exits_3(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "jobs": [
                    {"tenant": "a", "reads": reads.name, "k": 11},
                    {"tenant": "b", "reads": "missing.fq", "k": 11},
                ]
            },
        )
        rc = main(["serve", str(manifest)])
        captured = capsys.readouterr()
        assert rc == 3
        assert "not found" in captured.err

    @pytest.mark.parametrize(
        "payload,needle",
        [
            ({}, "jobs"),
            ({"jobs": []}, "jobs"),
            ({"jobs": [{"tenant": "a"}]}, "reads"),
            ({"jobs": [{"reads": "r.fa"}]}, "tenant"),
            ({"jobs": "nope"}, "jobs"),
        ],
    )
    def test_malformed_manifest_exits_2(
        self, tmp_path, capsys, payload, needle
    ):
        manifest = self.write_manifest(tmp_path, payload)
        rc = main(["serve", str(manifest)])
        err = capsys.readouterr().err
        assert rc == 2
        assert needle in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "payload,needle",
        [
            ({"tenants": {"acme": {"max_in_flight": 2}}}, "max_in_flight"),
            ({"workers": 2}, "workers"),
        ],
    )
    def test_retired_manifest_keys_exit_2(
        self, tmp_path, capsys, payload, needle
    ):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {**payload, "jobs": [{"tenant": "acme", "reads": reads.name}]},
        )
        rc = main(["serve", str(manifest)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: manifest ")
        assert needle in err
        assert "Traceback" not in err

    def test_manifest_not_json_exits_2(self, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text("{not json")
        rc = main(["serve", str(manifest)])
        assert rc == 2
        assert "JSON" in capsys.readouterr().err

    def test_observability_exports(self, tmp_path, capsys):
        import json

        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {"jobs": [{"tenant": "a", "reads": reads.name, "k": 11}]},
        )
        metrics = tmp_path / "metrics.json"
        trace = tmp_path / "trace.json"
        rc = main(
            [
                "serve",
                str(manifest),
                "--metrics-out",
                str(metrics),
                "--trace-out",
                str(trace),
            ]
        )
        assert rc == 0
        snapshot = json.loads(metrics.read_text())["metrics"]
        assert snapshot["service.admitted"]["value"] == 1
        assert snapshot["service.completed"]["value"] == 1
        assert snapshot["service.latency_ms.a"]["count"] == 1
        assert "service" in trace.read_text()


class TestExperiments:
    def test_single_experiment(self, capsys):
        rc = main(["experiments", "--only", "area"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Area overhead" in out and "4.98" in out

    def test_fig3b(self, capsys):
        rc = main(["experiments", "--only", "fig3b"])
        assert rc == 0
        assert "P-A" in capsys.readouterr().out

    def test_csv_export(self, tmp_path, capsys):
        rc = main(
            ["experiments", "--only", "area", "--csv-dir", str(tmp_path / "csv")]
        )
        assert rc == 0
        assert (tmp_path / "csv" / "fig3b_throughput.csv").exists()
        assert (tmp_path / "csv" / "fig9_execution.csv").exists()


class TestIntegrityCli:
    """The data-at-rest integrity flags on assemble and serve."""

    def _reads(self, tmp_path, seed=11):
        import random

        rng = random.Random(seed)
        genome = "".join(rng.choice("ACGT") for _ in range(250))
        records = [
            f">r{i}\n{genome[i : i + 50]}" for i in range(0, 200, 7)
        ]
        path = tmp_path / "reads.fa"
        path.write_text("\n".join(records) + "\n")
        return path

    def _fails(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("value", ["0", "-0.064"])
    def test_nonpositive_retention_on_assemble_exits_2(
        self, tmp_path, capsys, value
    ):
        reads = self._reads(tmp_path)
        err = self._fails(
            capsys,
            [
                "assemble",
                str(reads),
                "-o",
                str(tmp_path / "o.fa"),
                "--retention-interval-s",
                value,
            ],
        )
        assert "--retention-interval-s" in err and "positive" in err

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_nonpositive_retention_on_serve_exits_2(
        self, tmp_path, capsys, value
    ):
        # validated before the manifest is even opened
        err = self._fails(
            capsys,
            [
                "serve",
                str(tmp_path / "batch.json"),
                "--retention-interval-s",
                value,
            ],
        )
        assert "--retention-interval-s" in err and "positive" in err

    def test_ecc_requires_pim_engine(self, tmp_path, capsys):
        reads = self._reads(tmp_path)
        err = self._fails(
            capsys,
            [
                "assemble",
                str(reads),
                "-o",
                str(tmp_path / "o.fa"),
                "--engine",
                "software",
                "--ecc",
                "secded",
            ],
        )
        assert "--engine pim" in err

    def test_assemble_reports_integrity_summary(self, tmp_path, capsys):
        reads = self._reads(tmp_path)
        out = tmp_path / "o.fa"
        rc = main(
            [
                "assemble",
                str(reads),
                "-o",
                str(out),
                "-k",
                "11",
                "--ecc",
                "secded",
                "--retention-interval-s",
                "1e-4",
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "integrity:" in captured.out
        assert "refresh windows" in captured.out
        assert read_fasta(out)

    def test_serve_batch_defaults_apply_to_jobs(self, tmp_path, capsys):
        import json

        reads = self._reads(tmp_path)
        manifest = tmp_path / "batch.json"
        manifest.write_text(
            json.dumps(
                {"jobs": [{"tenant": "a", "reads": reads.name, "k": 11}]}
            )
        )
        rc = main(
            [
                "serve",
                str(manifest),
                "--ecc",
                "secded",
                "--retention-interval-s",
                "1e-4",
            ]
        )
        assert rc == 0
        assert "completed" in capsys.readouterr().out


class TestTelemetryCli:
    """--telemetry-out on assemble/serve, and inspect on both shapes."""

    def write_reads(self, tmp_path, seed=11, name="reads.fa"):
        import random

        rng = random.Random(seed)
        genome = "".join(rng.choice("ACGT") for _ in range(250))
        records = [
            f">r{i}\n{genome[i : i + 50]}" for i in range(0, 200, 11)
        ]
        path = tmp_path / name
        path.write_text("\n".join(records) + "\n")
        return path

    def write_manifest(self, tmp_path, payload, name="batch.json"):
        import json

        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return path

    def test_assemble_telemetry_out_validates(self, simulated, tmp_path, capsys):
        from repro.observability.validate import validate_exposition_file

        telemetry = tmp_path / "telemetry.prom"
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(tmp_path / "contigs.fa"),
                "-k",
                "15",
                "--telemetry-out",
                str(telemetry),
            ]
        )
        assert rc == 0
        assert "observability: wrote" in capsys.readouterr().out
        assert validate_exposition_file(telemetry) == []
        text = telemetry.read_text()
        assert "power_peak_w" in text
        assert "pim_commands_total" in text
        # the JSON companion carries the power summary
        import json

        doc = json.loads((tmp_path / "telemetry.prom.json").read_text())
        assert doc["power"]["total_energy_nj"] > 0
        assert doc["power"]["events"] > 0

    def test_telemetry_out_requires_pim_engine(self, simulated, tmp_path, capsys):
        rc = main(
            [
                "assemble",
                str(simulated / "reads.fq"),
                "-o",
                str(tmp_path / "c.fa"),
                "--engine",
                "software",
                "--telemetry-out",
                str(tmp_path / "t.prom"),
            ]
        )
        assert rc == 2
        assert "--telemetry-out" in capsys.readouterr().err

    def test_serve_slos_alerts_telemetry(self, tmp_path, capsys):
        from repro.observability.validate import validate_exposition_file

        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "slos": {"acme": {"latency_ms": 600000}},
                "alerts": [
                    "service.completed >= 1",
                    {
                        "name": "budget-burn",
                        "expr": "burn_rate(acme) > 1",
                        "severity": "page",
                    },
                ],
                "jobs": [
                    {"tenant": "acme", "name": "a", "reads": reads.name,
                     "k": 11},
                    {"tenant": "beta", "name": "b", "reads": reads.name,
                     "k": 11},
                ],
            },
        )
        telemetry = tmp_path / "svc.prom"
        rc = main(
            ["serve", str(manifest), "--telemetry-out", str(telemetry)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "alert [warning]: service.completed >= 1" in out
        assert validate_exposition_file(telemetry) == []
        text = telemetry.read_text()
        assert "slo_burn_rate_acme" in text
        assert "alerts_fired_total 1" in text
        # the scheduler audited its drain into the job root
        job_root = manifest.parent / "batch.json.jobs"
        assert (job_root / "audit.jsonl").is_file()

    def test_serve_rejects_bad_alert_rule(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "alerts": ["not a rule"],
                "jobs": [
                    {"tenant": "acme", "name": "a", "reads": reads.name}
                ],
            },
        )
        rc = main(["serve", str(manifest)])
        assert rc == 2
        assert "alert rule" in capsys.readouterr().err

    def test_serve_rejects_bad_slo(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "slos": {"acme": {"latency_ms": -1}},
                "jobs": [
                    {"tenant": "acme", "name": "a", "reads": reads.name}
                ],
            },
        )
        rc = main(["serve", str(manifest)])
        assert rc == 2

    def test_inspect_service_root_rollup(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "slos": {"acme": {"latency_ms": 600000}},
                "jobs": [
                    {"tenant": "acme", "name": "a", "reads": reads.name,
                     "k": 11},
                    {"tenant": "beta", "name": "b", "reads": reads.name,
                     "k": 11},
                ],
            },
        )
        assert main(["serve", str(manifest)]) == 0
        capsys.readouterr()
        job_root = manifest.parent / "batch.json.jobs"
        rc = main(["inspect", str(job_root)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "per-tenant rollup" in out
        assert "acme" in out and "beta" in out
        assert "power (top energy mnemonics, all journaled jobs)" in out
        assert "slo[acme]" in out

    def test_inspect_job_dir_has_power_section(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "jobs": [
                    {"tenant": "acme", "name": "a", "reads": reads.name,
                     "k": 11}
                ]
            },
        )
        assert main(["serve", str(manifest)]) == 0
        capsys.readouterr()
        job_dir = manifest.parent / "batch.json.jobs" / "acme" / "a"
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "power (top energy mnemonics)" in out
        assert "average power:" in out

    def test_inspect_renders_flight_dump(self, tmp_path, capsys):
        from repro.observability.flightrec import FlightRecorder

        reads = self.write_reads(tmp_path)
        manifest = self.write_manifest(
            tmp_path,
            {
                "jobs": [
                    {"tenant": "acme", "name": "a", "reads": reads.name,
                     "k": 11}
                ]
            },
        )
        assert main(["serve", str(manifest)]) == 0
        capsys.readouterr()
        job_dir = manifest.parent / "batch.json.jobs" / "acme" / "a"
        flight = FlightRecorder()
        flight.on_command("AAP1", 1, 5.0, 2.0, "hashmap", sim_ns=1.0)
        flight.dump(job_dir, reason="synthetic post-mortem")
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flight recorder dump" in out
        assert "synthetic post-mortem" in out
