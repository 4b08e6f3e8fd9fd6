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

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--coverage", "0"),
            ("--length", "-5"),
            ("--read-length", "500"),
            ("--error-rate", "2"),
        ],
    )
    def test_bad_numbers_exit_2_naming_the_flag(
        self, tmp_path, capsys, flag, value
    ):
        argv = ["simulate", "-o", str(tmp_path / "sim"), flag, value]
        if flag == "--read-length":
            argv += ["--length", "100"]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and flag in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "sim").exists()

    def test_output_path_of_a_file_exits_2_naming_it(
        self, simulated, capsys
    ):
        reads = simulated / "reads.fq"
        before = reads.read_bytes()
        rc = main(["simulate", "-o", str(reads), "--length", "200"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and str(reads) in err
        assert len(err.strip().splitlines()) == 1
        assert reads.read_bytes() == before


class TestAssemble:
    @pytest.mark.parametrize("engine", ["pim", "software"])
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

    @pytest.mark.parametrize(
        "engine_args",
        [
            ["--exec-engine", "scalar"],
            ["--exec-engine", "bulk"],
            ["--engine", "software"],
        ],
        ids=["scalar", "bulk", "software"],
    )
    def test_reads_shorter_than_k_assemble_nothing(
        self, tmp_path, capsys, engine_args
    ):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r0\nACGTACGT\n>r1\nTTGACCA\n")
        rc = main(
            ["assemble", str(reads), "-o", str(tmp_path / "o.fa"), "-k", "15"]
            + engine_args
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "Traceback" not in captured.err
        assert "0 contigs / 0 bp" in captured.out

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
        cases = [("1", "pim", "2")] + [
            # above the 64-bit packing limit, on every engine
            ("40", engine, "32")
            for engine in ("pim", "software")
        ]
        for k, engine, limit in cases:
            rc, err = self._run(
                capsys,
                [
                    "assemble",
                    str(reads),
                    "-o",
                    str(tmp_path / "o.fa"),
                    "-k",
                    k,
                    "--engine",
                    engine,
                ],
            )
            assert rc == 2
            assert "--k" in err and limit in err

    @pytest.mark.parametrize(
        "output,named",
        [("absent/o.fa", "absent"), (".", ".")],
        ids=["missing-directory", "is-a-directory"],
    )
    def test_unwritable_output_exits_2_before_reading(
        self, tmp_path, capsys, output, named
    ):
        rc, err = self._run(
            capsys,
            [
                "assemble",
                str(tmp_path / "nope.fq"),
                "-o",
                str(tmp_path / output),
            ],
        )
        assert rc == 2
        assert str(tmp_path / named) in err and "not found" not in err

    def test_negative_min_contig_exits_2(self, tmp_path, capsys):
        reads = tmp_path / "reads.fa"
        reads.write_text(">r0\nACGTACGTACGTACGT\n")
        rc, err = self._run(
            capsys,
            [
                "assemble",
                str(reads),
                "-o",
                str(tmp_path / "o.fa"),
                "--min-contig",
                "-5",
            ],
        )
        assert rc == 2
        assert "--min-contig" in err and "-5" in err
        assert not (tmp_path / "o.fa").exists()

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--stage-timeout", "0"),
            ("--stage-timeout", "-3"),
            ("--job-timeout", "0"),
            ("--job-timeout", "-0.5"),
            ("--stage-timeout", "nan"),
            ("--stage-timeout", "inf"),
            ("--job-timeout", "nan"),
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


class TestRetiredCommands:
    def test_serve_is_an_unknown_command(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["serve", str(tmp_path / "batch.json")])
        assert info.value.code == 2
        assert "invalid choice: 'serve'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["scaffold", "c.fa", "pairs.fq", "-o", "s.fa"], "'scaffold'"),
            (["assemble", "r.fq", "-o", "c.fa", "--engine", "bidirected"],
             "'bidirected'"),
            (["assemble", "r.fq", "-o", "c.fa", "--correct"], "--correct"),
            (["simulate", "-o", "sim", "--paired"], "--paired"),
        ],
        ids=["scaffold", "engine-bidirected", "correct", "paired"],
    )
    def test_retired_assembly_extras_are_rejected(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_optimize_trace_no_gang_merge_is_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as info:
            main(["optimize-trace", str(tmp_path / "t.json"), "--no-gang-merge"])
        assert info.value.code == 2
        assert "--no-gang-merge" in capsys.readouterr().err


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
    """The data-at-rest integrity flags on assemble."""

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

    @pytest.mark.parametrize("value", ["0", "-0.064", "nan", "inf"])
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

class TestTelemetryCli:
    """inspect on a journaled job: power section and flight dumps."""

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

    def journaled_job(self, tmp_path, capsys):
        reads = self.write_reads(tmp_path)
        job_dir = tmp_path / "job"
        rc = main(
            [
                "assemble",
                str(reads),
                "-o",
                str(tmp_path / "c.fa"),
                "-k",
                "11",
                "--job-dir",
                str(job_dir),
            ]
        )
        assert rc == 0
        capsys.readouterr()
        return job_dir

    def test_inspect_job_dir_has_power_section(self, tmp_path, capsys):
        job_dir = self.journaled_job(tmp_path, capsys)
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "power (top energy mnemonics)" in out
        assert "average power:" in out

    def test_inspect_renders_flight_dump(self, tmp_path, capsys):
        from repro.observability.flightrec import FlightRecorder

        job_dir = self.journaled_job(tmp_path, capsys)
        flight = FlightRecorder()
        flight.on_command("AAP1", 1, 5.0, 2.0, "hashmap", sim_ns=1.0)
        flight.dump(job_dir, reason="synthetic post-mortem")
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "flight recorder dump" in out
        assert "synthetic post-mortem" in out

    def test_inspect_renders_a_dump_carrying_alerts(self, tmp_path, capsys):
        """Dumps written before the alert ring was removed carry an
        ``"alerts"`` key; inspect still renders them."""
        import json

        from repro.observability.flightrec import FLIGHT_FILENAME

        job_dir = self.journaled_job(tmp_path, capsys)
        (job_dir / FLIGHT_FILENAME).write_text(
            json.dumps(
                {
                    "format": "repro-flight-v1",
                    "reason": "older post-mortem",
                    "commands": [],
                    "spans": [{"name": "stage.hashmap", "lane": "hashmap"}],
                    "events": [],
                    "alerts": [{"name": "a", "expression": "x > 1"}],
                }
            )
        )
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "older post-mortem" in out
        assert "stage.hashmap" in out

    def test_inspect_renders_a_dump_whose_commands_carry_lanes(
        self, tmp_path, capsys
    ):
        """Older dumps tag every command record with a ``"lane"``."""
        import json

        from repro.observability.flightrec import FLIGHT_FILENAME

        job_dir = self.journaled_job(tmp_path, capsys)
        command = {
            "sim_ns": 5.0, "command": "AAP1", "count": 1, "time_ns": 5.0,
            "energy_nj": 2.0, "phase": "hashmap", "lane": "hashmap",
        }
        (job_dir / FLIGHT_FILENAME).write_text(
            json.dumps(
                {
                    "format": "repro-flight-v1",
                    "reason": "lane-tagged post-mortem",
                    "commands": [command],
                    "spans": [],
                    "events": [],
                }
            )
        )
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "lane-tagged post-mortem" in out
        assert "captured: 1 commands" in out

    @pytest.mark.parametrize(
        "document, shown",
        [
            ([1], None),
            ({"reason": "bad rings", "spans": [5]}, "0 spans"),
            ({"reason": "bad rings", "commands": 3, "spans": [5, {}]},
             "1 spans"),
        ],
    )
    def test_inspect_survives_a_malformed_flight_dump(
        self, tmp_path, capsys, document, shown
    ):
        import json

        from repro.observability.flightrec import FLIGHT_FILENAME

        job_dir = self.journaled_job(tmp_path, capsys)
        (job_dir / FLIGHT_FILENAME).write_text(json.dumps(document))
        rc = main(["inspect", str(job_dir)])
        out = capsys.readouterr().out
        assert rc == 0
        if shown is None:
            # not an object: treated as no dump at all
            assert "flight recorder dump" not in out
        else:
            assert "flight recorder dump" in out
            assert "captured: 0 commands, " + shown in out
