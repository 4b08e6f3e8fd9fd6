"""Kill-and-resume equivalence, deadline handling, and the retry ladder.

The core contract under test: a job interrupted at *any* cancellation
point — simulated crash or deadline — and then resumed produces
contigs, per-mnemonic command counts, and resilience event counts
**bit-identical** to an uninterrupted run, on both execution engines.
"""

import random

import pytest

from repro.assembly.pipeline import PimPipeline, PipelineState, _sized_device
from repro.core.faults import FaultModel
from repro.core.integrity import IntegrityConfig
from repro.core.platform import PimAssembler
from repro.core.resilience import ResiliencePolicy
from repro.errors import (
    JobFailedError,
    JournalError,
    StageTimeoutError,
    TableFullError,
    UncorrectableFaultError,
    VerificationError,
)
from repro.genome.sequence import DnaSequence
from repro.runtime.checkpoint import JobJournal
from repro.runtime.jobs import (
    MAX_ATTEMPTS,
    JobConfig,
    JobRunner,
    reads_fingerprint,
)
from repro.runtime.watchdog import Watchdog

K = 9
FAULT_SEED = 42


def make_reads(seed: int = 11, genome_bp: int = 400) -> list[DnaSequence]:
    rng = random.Random(seed)
    genome = "".join(rng.choice("ACGT") for _ in range(genome_bp))
    return [DnaSequence(genome[i : i + 50]) for i in range(0, genome_bp - 50, 11)]


#: accelerated retention rot under SECDED: far beyond real DRAM, so a
#: short job really exercises the codec and the scrubber
ROT = IntegrityConfig(
    ecc="secded", retention_interval_s=1e-4, upset_probability=1e-6
)


def faulty_pim_factory(policy: ResiliencePolicy, integrity=None):
    """Platform factory with a live fault stream + protection attached
    (and, given an ``integrity`` config, seeded retention rot)."""

    def make(reads):
        pim = _sized_device(reads, K)
        pim.controller.faults = FaultModel(
            seed=FAULT_SEED, compute2_rate=2e-4, tra_rate=1e-4
        )
        pim.protect(policy)
        if integrity is not None:
            pim.attach_integrity(integrity)
        return pim

    return make


def rot_config(engine: str, policy: ResiliencePolicy, ecc) -> JobConfig:
    """A job config matching :data:`ROT` when ``ecc`` is set."""
    if ecc is None:
        return JobConfig(k=K, engine=engine, resilience=policy)
    return JobConfig(
        k=K,
        engine=engine,
        resilience=policy,
        ecc=ecc,
        retention_interval_s=ROT.retention_interval_s,
    )


def run_fingerprint(result) -> tuple:
    """Everything the resume-equivalence contract covers."""
    r = result.resilience
    return (
        [(c.name, str(c.sequence)) for c in result.contigs],
        dict(result.hashmap.commands),
        dict(result.debruijn.commands),
        dict(result.traverse.commands),
        None
        if r is None
        else (r.totals.detected, r.totals.corrected, r.totals.retries),
        result.integrity,
    )


class SimulatedKill(BaseException):
    """Stand-in for SIGKILL: not an Exception, nothing may catch it."""


@pytest.fixture(scope="module")
def reads():
    return make_reads()


class TestFreshJob:
    def test_matches_plain_pipeline(self, reads, tmp_path):
        pim = _sized_device(reads, K)
        golden = PimPipeline(pim, k=K).run(reads)
        out = JobRunner(tmp_path / "job", JobConfig(k=K)).run(reads)
        assert run_fingerprint(out.result) == run_fingerprint(golden)
        assert out.report.completed
        assert out.report.stages_run == ["hashmap", "debruijn", "traverse"]

    def test_journal_holds_stage_records(self, reads, tmp_path):
        runner = JobRunner(tmp_path / "job", JobConfig(k=K))
        runner.run(reads)
        stages = [ref.stage for ref in runner.journal.records()]
        assert stages == ["hashmap", "debruijn", "traverse", "result"]

    def test_fresh_start_refuses_existing_journal(self, reads, tmp_path):
        JobRunner(tmp_path / "job", JobConfig(k=K)).run(reads)
        with pytest.raises(JournalError, match="already exists"):
            JobRunner(tmp_path / "job", JobConfig(k=K)).run(reads)


class TestResumeValidation:
    def test_resume_without_journal(self, reads, tmp_path):
        with pytest.raises(JournalError, match="no job journal"):
            JobRunner(tmp_path / "job", JobConfig(k=K)).resume(reads)

    def test_resume_rejects_different_reads(self, reads, tmp_path):
        JobRunner(tmp_path / "job", JobConfig(k=K)).run(reads)
        other = make_reads(seed=99)
        with pytest.raises(JournalError, match="do not match"):
            JobRunner(tmp_path / "job", JobConfig(k=K)).resume(other)

    def test_resume_rejects_different_config(self, reads, tmp_path):
        JobRunner(tmp_path / "job", JobConfig(k=K)).run(reads)
        with pytest.raises(JournalError, match="configuration"):
            JobRunner(
                tmp_path / "job", JobConfig(k=K, min_count=2)
            ).resume(reads)

    @staticmethod
    def _journal_with_options(reads, job_dir, **options):
        """A finished bulk-engine journal whose ``job.json`` also
        records ``options``, pipeline options this version lacks."""
        import json

        JobRunner(job_dir, JobConfig(k=K, engine="bulk")).run(reads)
        path = job_dir / "job.json"
        stored = json.loads(path.read_text())
        for name, value in options.items():
            assert name not in stored["config"]
            stored["config"][name] = value
        path.write_text(json.dumps(stored, sort_keys=True, indent=1))

    def test_resume_rejects_a_batched_journal(self, reads, tmp_path):
        self._journal_with_options(reads, tmp_path / "job", batch_reads=8)
        with pytest.raises(JournalError, match="configuration"):
            JobRunner(
                tmp_path / "job", JobConfig(k=K, engine="bulk")
            ).resume(reads)

    @pytest.mark.parametrize(
        "option, value, feature",
        [
            ("contig_mode", "euler", "walks Eulerian contigs"),
            ("scaffold", True, "scaffolds its contigs"),
            ("simplify", True, "simplifies its graph"),
        ],
    )
    def test_resume_rejects_a_non_default_retired_option(
        self, reads, tmp_path, option, value, feature
    ):
        """A ``job.json`` asking for a removed pipeline feature (here:
        one that ``feature``) fails the configuration check."""
        self._journal_with_options(reads, tmp_path / "job", **{option: value})
        with pytest.raises(JournalError, match="configuration"):
            JobRunner(
                tmp_path / "job", JobConfig(k=K, engine="bulk")
            ).resume(reads)

    @pytest.mark.parametrize("version", [1, 2])
    def test_resume_refuses_pre_v3_journals(self, reads, tmp_path, version):
        """Journals written before records stored each k-mer once no
        longer resume."""
        import json

        job_dir = tmp_path / "job"
        JobRunner(job_dir, JobConfig(k=K)).run(reads)
        path = job_dir / "job.json"
        stored = json.loads(path.read_text())
        stored["journal_version"] = version
        path.write_text(json.dumps(stored))
        with pytest.raises(JournalError, match="not supported"):
            JobRunner(job_dir, JobConfig(k=K)).resume(reads)

    def test_fingerprint_is_order_sensitive(self, reads):
        assert reads_fingerprint(reads) != reads_fingerprint(
            list(reversed(reads))
        )


class TestKillAndResume:
    """Randomized kill points across stages, both engines, live faults."""

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_resume_is_bit_identical(self, reads, tmp_path, engine):
        policy = ResiliencePolicy.named("detect-retry-remap")
        config = JobConfig(k=K, engine=engine, resilience=policy)
        factory = faulty_pim_factory(policy)

        meter = Watchdog()
        golden = JobRunner(
            tmp_path / "golden", config, pim_factory=factory, watchdog=meter
        ).run(reads)
        golden_fp = run_fingerprint(golden.result)
        total_ticks = meter.ticks
        assert total_ticks > 100

        rng = random.Random(1234 + hash(engine) % 1000)
        kill_fracs = [0.08, rng.uniform(0.2, 0.5), rng.uniform(0.6, 0.8), 0.97]
        for index, frac in enumerate(kill_fracs):
            kill_at = max(1, int(total_ticks * frac))

            def bomb(ticks, kill_at=kill_at):
                if ticks == kill_at:
                    raise SimulatedKill()

            job_dir = tmp_path / f"{engine}-{index}"
            victim = JobRunner(
                job_dir,
                config,
                pim_factory=factory,
                watchdog=Watchdog(on_tick=bomb),
            )
            with pytest.raises(SimulatedKill):
                victim.run(reads)

            revived = JobRunner(job_dir, config, pim_factory=factory)
            out = revived.resume(reads)
            assert out.report.resumed
            assert run_fingerprint(out.result) == golden_fp, (
                f"kill at tick {kill_at}/{total_ticks} diverged"
            )

    def test_every_kill_point_resumes_identically_under_ecc(self, tmp_path):
        """Bulk engine, live faults and seeded rot under SECDED: a kill
        at every 80th watchdog tick (and at the last one) must fire,
        and each resume must match the undisturbed run, rot included."""
        reads = make_reads(genome_bp=200)
        policy = ResiliencePolicy.named("detect-retry-remap")
        config = rot_config("bulk", policy, "secded")
        factory = faulty_pim_factory(policy, integrity=ROT)

        meter = Watchdog()
        golden = JobRunner(
            tmp_path / "golden", config, pim_factory=factory, watchdog=meter
        ).run(reads)
        golden_fp = run_fingerprint(golden.result)
        assert golden.result.integrity.flips_injected > 0
        total_ticks = meter.ticks
        assert total_ticks == 951

        kill_points = [*range(80, total_ticks, 80), total_ticks]
        for kill_at in kill_points:

            def bomb(ticks, kill_at=kill_at):
                if ticks == kill_at:
                    raise SimulatedKill()

            job_dir = tmp_path / f"kill-{kill_at}"
            victim = JobRunner(
                job_dir,
                config,
                pim_factory=factory,
                watchdog=Watchdog(on_tick=bomb),
            )
            with pytest.raises(SimulatedKill):
                victim.run(reads)

            out = JobRunner(job_dir, config, pim_factory=factory).resume(reads)
            assert out.report.resumed
            assert run_fingerprint(out.result) == golden_fp, (
                f"kill at tick {kill_at}/{total_ticks} diverged"
            )

    @pytest.mark.parametrize("ecc", ["secded", "off"])
    def test_two_mat_resume_rots_the_same_subarrays(
        self, tmp_path, monkeypatch, ecc
    ):
        """A 2-MAT device touches its sub-arrays across MATs, so store
        slot order is not nested key order: a job killed right after
        its hashmap record must resume with every sub-array in the slot
        it held, or seeded rot lands on different sub-arrays."""
        reads = make_reads(genome_bp=200)
        policy = ResiliencePolicy.named("detect-retry-remap")
        config = rot_config("bulk", policy, ecc)
        # windows short enough to close between the hashmap record and
        # the next stage's rot checkpoint
        rot = IntegrityConfig(
            ecc=ecc, retention_interval_s=1e-6, upset_probability=1e-6
        )

        def factory(reads):
            # 16 sub-arrays per MAT: the first read touches only some
            # partitions, so later reads claim slots across both MATs
            sub = _sized_device(reads, K).geometry.bank.mat.subarray
            pim = PimAssembler.small(
                subarrays=16, rows=sub.rows, cols=sub.cols, mats=2
            )
            pim.controller.faults = FaultModel(
                seed=FAULT_SEED, compute2_rate=2e-4, tra_rate=1e-4
            )
            pim.protect(policy)
            pim.attach_integrity(rot)
            return pim

        def final_words(job_dir) -> dict:
            _, record = JobJournal(job_dir).latest()
            return {
                tuple(entry["key"]): entry["words"]
                for entry in record["platform"]["subarrays"]
            }

        golden = JobRunner(tmp_path / "golden", config, pim_factory=factory)
        golden_fp = run_fingerprint(golden.run(reads).result)
        assert golden_fp[-1].flips_injected > 0

        def kill(self, state):
            raise SimulatedKill()

        job_dir = tmp_path / "victim"
        with monkeypatch.context() as patch:
            patch.setattr(PimPipeline, "run_debruijn", kill)
            with pytest.raises(SimulatedKill):
                JobRunner(job_dir, config, pim_factory=factory).run(reads)
        assert [ref.stage for ref in JobJournal(job_dir).records()] == [
            "hashmap"
        ]
        out = JobRunner(job_dir, config, pim_factory=factory).resume(reads)
        assert out.report.resumed
        assert run_fingerprint(out.result) == golden_fp
        assert final_words(job_dir) == final_words(tmp_path / "golden")

    def test_resume_from_each_stage_boundary(self, reads, tmp_path):
        """Truncate the journal to each boundary and resume from it."""
        config = JobConfig(k=K)
        golden = JobRunner(tmp_path / "golden", config).run(reads)
        golden_fp = run_fingerprint(golden.result)

        for keep, stage in ((1, "hashmap"), (2, "debruijn"), (3, "traverse")):
            job_dir = tmp_path / f"cut{keep}"
            source = JobRunner(job_dir, config)
            source.run(reads)
            manifest = source.journal.manifest_path
            lines = manifest.read_text().splitlines(keepends=True)
            manifest.write_text("".join(lines[:keep]))

            revived = JobRunner(job_dir, config)
            out = revived.resume(reads)
            assert out.report.resumed_from == stage
            assert run_fingerprint(out.result) == golden_fp

    def test_record_with_retired_runtime_key_resumes(
        self, reads, tmp_path, monkeypatch
    ):
        """Records may carry the retired ``"runtime"`` key (the engine
        and batch size a retry once switched to); a resume ignores it,
        runs the config's engine and finishes bit-identically."""
        config = JobConfig(k=K, engine="bulk")
        golden = JobRunner(tmp_path / "golden", config).run(reads)
        golden_fp = run_fingerprint(golden.result)
        payload = JobRunner._payload

        def with_runtime(runner, stage):
            record = payload(runner, stage)
            record["runtime"] = {"engine": "scalar", "batch_reads": 2}
            return record

        for keep, stage in ((1, "hashmap"), (2, "debruijn"), (3, "traverse")):
            job_dir = tmp_path / f"cut{keep}"
            with monkeypatch.context() as patch:
                patch.setattr(JobRunner, "_payload", with_runtime)
                source = JobRunner(job_dir, config)
                source.run(reads)
            manifest = source.journal.manifest_path
            lines = manifest.read_text().splitlines(keepends=True)
            manifest.write_text("".join(lines[:keep]))

            revived = JobRunner(job_dir, config)
            assert "runtime" in revived.journal.latest()[1]
            out = revived.resume(reads)
            assert out.report.resumed_from == stage
            assert revived._pipeline.engine == "bulk"
            assert run_fingerprint(out.result) == golden_fp


class TestTimeouts:
    def _ticking_clock(self):
        state = {"now": 0.0}

        def clock():
            state["now"] += 1.0
            return state["now"]

        return clock

    def test_timeout_leaves_resumable_journal(self, reads, tmp_path):
        config = JobConfig(k=K)
        golden = JobRunner(tmp_path / "golden", config).run(reads)

        watchdog = Watchdog(
            stage_budget_s=50.0, stride=8, clock=self._ticking_clock()
        )
        victim = JobRunner(tmp_path / "job", config, watchdog=watchdog)
        with pytest.raises(StageTimeoutError) as info:
            victim.run(reads)
        assert info.value.scope == "stage"
        assert victim.report.decisions[-1].action == "abort-timeout"

        out = JobRunner(tmp_path / "job", config).resume(reads)
        assert run_fingerprint(out.result) == run_fingerprint(golden.result)

    def test_config_budgets_build_a_watchdog(self, reads, tmp_path):
        # an absurdly small budget must trip on a real clock
        config = JobConfig(k=K, stage_timeout_s=1e-9)
        with pytest.raises(StageTimeoutError):
            JobRunner(tmp_path / "job", config).run(reads)

    def test_decision_journaled_on_timeout(self, reads, tmp_path):
        config = JobConfig(k=K, stage_timeout_s=1e-9)
        runner = JobRunner(tmp_path / "job", config)
        with pytest.raises(StageTimeoutError):
            runner.run(reads)
        actions = [d["action"] for d in runner.journal.decisions()]
        assert actions == ["abort-timeout"]


class TestCompletedJobRehydration:
    def test_resume_of_finished_job_re_emits_result(self, reads, tmp_path):
        config = JobConfig(k=K)
        first = JobRunner(tmp_path / "job", config).run(reads)
        again = JobRunner(tmp_path / "job", config).resume(reads)
        assert again.report.resumed_from == "result"
        assert run_fingerprint(again.result) == run_fingerprint(first.result)
        assert again.result.kmer_table_size == first.result.kmer_table_size


class TestRetryLadder:
    """A stage is re-run only after quarantining the sub-array its
    error names; every other failure gives up on the first attempt."""

    @staticmethod
    def _failing_stage(monkeypatch, keys, stage="run_hashmap"):
        """Make ``stage`` raise one uncorrectable fault per entry of
        ``keys`` (naming that sub-array; ``None`` names none) before it
        does any work, then run normally."""
        original = getattr(PimPipeline, stage)
        pending = list(keys)

        def fail_first(pipeline, *args):
            if pending:
                key = pending.pop(0)
                if key is None:
                    raise VerificationError("injected stage failure")
                raise UncorrectableFaultError(key, "compute2", 1)
            return original(pipeline, *args)

        monkeypatch.setattr(PimPipeline, stage, fail_first)
        return pending

    def test_engine_stays_fixed_across_retries(
        self, reads, tmp_path, monkeypatch
    ):
        config = JobConfig(k=K, engine="bulk", resilience="detect")
        self._failing_stage(monkeypatch, [(0, 0, 0), (0, 0, 1)])
        runner = JobRunner(tmp_path / "job", config)
        out = runner.run(reads)
        assert out.report.completed
        actions = [d.action for d in out.report.decisions]
        assert actions == ["quarantine-0,0,0", "quarantine-0,0,1"]
        assert runner._pipeline.engine == "bulk"

    def test_bulk_decisions_equal_scalar_decisions(self, reads, tmp_path):
        """Under one seeded fault stream both engines fail identically,
        so they take identical ladder decisions: one quarantine per
        failing sub-array until the attempts run out."""

        def factory(job_reads):
            pim = _sized_device(job_reads, K)
            pim.controller.faults = FaultModel(
                seed=FAULT_SEED, compute2_rate=2e-2, tra_rate=1e-2
            )
            pim.protect(
                ResiliencePolicy.named("detect", raise_on_uncorrected=True)
            )
            return pim

        def decisions(engine):
            config = JobConfig(k=K, engine=engine)
            runner = JobRunner(tmp_path / engine, config, pim_factory=factory)
            with pytest.raises(JobFailedError):
                runner.run(reads)
            return [
                (d.stage, d.action, d.error) for d in runner.report.decisions
            ]

        bulk = decisions("bulk")
        assert bulk == decisions("scalar")
        assert [action for _, action, _ in bulk] == [
            "quarantine-0,0,0",
            "quarantine-0,0,1",
            "quarantine-0,0,2",
            "give-up",
        ]

    def test_ladder_exhaustion_raises_job_failed(
        self, reads, tmp_path, monkeypatch
    ):
        """Every attempt names a fresh sub-array: the ladder stops at
        MAX_ATTEMPTS, as many as the quarantines it may spend plus one."""
        config = JobConfig(k=K, resilience="detect")
        self._failing_stage(
            monkeypatch, [(0, 0, index) for index in range(MAX_ATTEMPTS + 2)]
        )
        runner = JobRunner(tmp_path / "job", config)
        with pytest.raises(JobFailedError) as info:
            runner.run(reads)
        assert info.value.stage == "hashmap"
        assert info.value.attempts == MAX_ATTEMPTS == 4
        actions = [d.action for d in runner.report.decisions]
        assert actions == [
            "quarantine-0,0,0",
            "quarantine-0,0,1",
            "quarantine-0,0,2",
            "give-up",
        ]

    @pytest.mark.parametrize(
        "resilience, keys",
        [
            ("detect", [None]),  # the error names no sub-array
            (None, [(0, 0, 0)]),  # no engine to quarantine with
            ("detect", [(0, 0, 0), (0, 0, 0)]),  # already quarantined
        ],
        ids=["unnamed", "no-engine", "repeat"],
    )
    def test_failure_with_nothing_to_quarantine_gives_up(
        self, reads, tmp_path, monkeypatch, resilience, keys
    ):
        config = JobConfig(k=K, resilience=resilience)
        self._failing_stage(monkeypatch, keys)
        runner = JobRunner(tmp_path / "job", config)
        with pytest.raises(JobFailedError) as info:
            runner.run(reads)
        assert info.value.attempts == len(keys)
        actions = [d.action for d in runner.report.decisions]
        assert actions[-1] == "give-up"
        assert len(actions) == len(keys)

    def test_full_table_gives_up_after_one_attempt(self, reads, tmp_path):
        """A table overflow names no sub-array: re-running the stage
        would overflow identically, so the job fails at once."""
        runner = JobRunner(
            tmp_path / "job",
            JobConfig(k=K),
            pim_factory=lambda _: PimAssembler.small(subarrays=1),
        )
        with pytest.raises(JobFailedError) as info:
            runner.run(reads)
        assert isinstance(info.value.last_error, TableFullError)
        assert info.value.attempts == 1
        assert [d.action for d in runner.report.decisions] == ["give-up"]

    def test_retried_run_still_matches_golden_output(
        self, reads, tmp_path, monkeypatch
    ):
        """A retried stage replays from its entry snapshot: the output
        equals an undisturbed run's."""
        golden = JobRunner(tmp_path / "golden", JobConfig(k=K)).run(reads)
        config = JobConfig(k=K, engine="bulk", resilience="detect")
        self._failing_stage(monkeypatch, [(0, 0, 0), (0, 0, 1)])
        out = JobRunner(tmp_path / "job", config).run(reads)
        assert len(out.report.decisions) == 2
        assert [(c.name, str(c.sequence)) for c in out.result.contigs] == [
            (c.name, str(c.sequence)) for c in golden.result.contigs
        ]

    @pytest.mark.parametrize("ecc", [None, "secded"])
    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    @pytest.mark.parametrize(
        "stage", ["run_hashmap", "run_debruijn", "run_traverse"]
    )
    def test_rollback_restores_fault_and_rot_streams(
        self, reads, tmp_path, monkeypatch, stage, engine, ecc
    ):
        """Fail after the work vs fail before it: in the first run the
        stage runs for real, consuming fault and rot draws, and then
        raises; in the second it raises before doing anything.  Both
        quarantine the same sub-array and re-run from the stage's entry
        snapshot, so both jobs end identically."""
        policy = ResiliencePolicy.named("detect-retry-remap")
        config = rot_config(engine, policy, ecc)
        factory = faulty_pim_factory(
            policy, integrity=None if ecc is None else ROT
        )
        original = getattr(PimPipeline, stage)
        key = (0, 0, 0)

        def run(job_dir, after_work):
            state = {"left": 1}

            def fail_once(pipeline, *args):
                if state["left"] and not after_work:
                    state["left"] = 0
                    raise UncorrectableFaultError(key, "compute2", 1)
                out = original(pipeline, *args)
                if state["left"]:
                    state["left"] = 0
                    raise UncorrectableFaultError(key, "compute2", 1)
                return out

            with monkeypatch.context() as patch:
                patch.setattr(PimPipeline, stage, fail_once)
                out = JobRunner(job_dir, config, pim_factory=factory).run(
                    reads
                )
            assert state["left"] == 0
            assert [d.action for d in out.report.decisions] == [
                "quarantine-0,0,0"
            ]
            return run_fingerprint(out.result)

        assert run(tmp_path / "after", True) == run(tmp_path / "before", False)

    def test_nonpositive_budgets_are_rejected(self):
        with pytest.raises(ValueError, match="stage_timeout_s"):
            JobConfig(k=K, stage_timeout_s=0.0)
        with pytest.raises(ValueError, match="job_timeout_s"):
            JobConfig(k=K, job_timeout_s=-5.0)

    @pytest.mark.parametrize(
        "field", ["stage_timeout_s", "job_timeout_s", "retention_interval_s"]
    )
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_seconds_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            JobConfig(k=K, **{field: value})

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": 1},
            {"k": 40},
            {"engine": "gpu"},
            {"min_count": 0},
            {"min_contig_length": -1},
        ],
        ids=["k=1", "k=40", "engine=gpu", "min_count=0", "min_contig_length=-1"],
    )
    def test_bad_config_raises_before_a_journal_exists(self, tmp_path, bad):
        field = next(iter(bad))
        with pytest.raises(ValueError, match=field):
            JobRunner(tmp_path / "job", JobConfig(**{"k": K, **bad}))
        assert not (tmp_path / "job").exists()

    def test_decisions_are_journaled(self, reads, tmp_path, monkeypatch):
        config = JobConfig(k=K, engine="bulk", resilience="detect")
        self._failing_stage(monkeypatch, [(0, 0, 0)])
        runner = JobRunner(tmp_path / "job", config)
        runner.run(reads)
        logged = runner.journal.decisions()
        assert [d["action"] for d in logged] == ["quarantine-0,0,0"]
        assert logged[0]["stage"] == "hashmap"
        assert set(logged[0]) == {"stage", "attempt", "action", "error"}


class TestPlatformSnapshot:
    """state_dict/from_state is an exact fixed point mid-run."""

    def test_snapshot_round_trip_is_identity(self, reads):
        policy = ResiliencePolicy.named("detect-retry-remap")
        pim = faulty_pim_factory(policy)(reads)
        pipeline = PimPipeline(pim, k=K)
        pipeline.run_hashmap(reads, PipelineState())
        snapshot = pim.state_dict()
        restored = PimAssembler.from_state(snapshot)
        assert restored.state_dict() == snapshot

    def test_restored_fault_stream_continues_identically(self, reads):
        policy = ResiliencePolicy.named("detect-retry-remap")
        pim = faulty_pim_factory(policy)(reads)
        twin = PimAssembler.from_state(pim.state_dict())
        a = pim.controller.faults._rng.random(8).tolist()
        b = twin.controller.faults._rng.random(8).tolist()
        assert a == b
