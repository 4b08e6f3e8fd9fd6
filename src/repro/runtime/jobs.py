"""Crash-tolerant, deadline-bounded assembly jobs above ``PimPipeline``.

PR 1's resilience engine recovers *device* faults op by op; this layer
recovers *job* faults: a process death, a wall-clock overrun, or a
stage whose in-memory recovery gave out.  One :class:`JobRunner` run is
one job:

* after every Fig. 5a stage boundary the full execution state —
  platform memory, stats ledger, fault-RNG stream, resilience events,
  k-mer table shadow, graph — is journaled to a content-hashed on-disk
  record (:mod:`repro.runtime.checkpoint`), so ``kill -9`` at any point
  loses at most one stage of work and a resumed run finishes
  **bit-identically** to an uninterrupted one;
* a :class:`~repro.runtime.watchdog.Watchdog` enforces per-stage and
  whole-job deadline budgets through the cooperative cancellation
  checkpoints inside the hashmap/adjacency/euler loops; the raised
  :class:`~repro.errors.StageTimeoutError` always leaves a resumable
  journal behind;
* a retry ladder with capped, fingerprint-seeded jittered backoff
  quarantines the failing sub-array (when the error names one and a
  resilience engine is attached) or plainly retries, rolling the stage
  back to its entry snapshot before every attempt so retries replay
  deterministically.  The job runs on the engine and batch size its
  :class:`JobConfig` names from first dispatch to completion: the bulk
  engine is bit-identical to the scalar one, so switching engines
  could never change an outcome.  Every decision is journaled and
  surfaces in the :class:`JobReport`.
"""

from __future__ import annotations

import hashlib
import math
import random
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.assembly.pipeline import (
    STAGE_NAMES,
    AssemblyResult,
    PimPipeline,
    PipelineState,
    _sized_device,
)
from repro.core.platform import PimAssembler
from repro.core.resilience import ResiliencePolicy
from repro.errors import (
    JobFailedError,
    JournalError,
    ReproError,
    StageTimeoutError,
    SubarrayQuarantinedError,
    TableFullError,
    UncorrectableFaultError,
    VerificationError,
)
from repro.observability.metrics import inc
from repro.observability.session import active_session
from repro.observability.spans import event, span
from repro.runtime.checkpoint import (
    JobJournal,
    contigs_from_state,
    contigs_state,
    graph_from_state,
    graph_state,
    scaffolds_from_state,
    scaffolds_state,
)
from repro.runtime.watchdog import Watchdog

__all__ = ["JobConfig", "JobDecision", "JobReport", "JobOutcome", "JobRunner"]

#: the journal stage name of the completed-job record
RESULT_STAGE = "result"

#: errors the retry ladder re-attempts (fault-class failures the
#: resilience layer could not absorb, plus capacity collapses a
#: quarantine re-plan may route around)
RETRYABLE_ERRORS = (
    UncorrectableFaultError,
    VerificationError,
    SubarrayQuarantinedError,
    TableFullError,
)


def reads_fingerprint(reads: Iterable) -> str:
    """Content hash of a read set (order-sensitive, path-independent)."""
    digest = hashlib.sha256()
    for item in reads:
        name = getattr(item, "name", "")
        sequence = getattr(item, "sequence", item)
        digest.update(str(name).encode("ascii", "replace"))
        digest.update(b"\x00")
        digest.update(str(sequence).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class JobConfig:
    """Everything that defines a job's deterministic behaviour.

    The determinism-relevant fields are frozen into ``job.json`` when
    the journal is created; a resume validates them (and the input
    fingerprint) so a journal can never silently continue a *different*
    job.  Deadline and ladder knobs may change between resume attempts.
    """

    k: int
    min_count: int = 1
    contig_mode: str = "unitig"
    scaffold: bool = False
    min_contig_length: int = 0
    simplify: bool = False
    resilience: "ResiliencePolicy | str | None" = None
    engine: str = "scalar"
    #: data-at-rest protection: ``"secded"`` attaches the retention /
    #: ECC / scrub engine, ``"off"`` models rot without correction,
    #: ``None`` leaves the platform untouched (no retention model)
    ecc: str | None = None
    #: simulated refresh window (tREFW) in seconds; ``None`` keeps the
    #: :class:`~repro.core.integrity.IntegrityConfig` default
    retention_interval_s: float | None = None
    # --- deadline budgets (not identity-relevant) ---
    stage_timeout_s: float | None = None
    job_timeout_s: float | None = None
    # --- retry ladder (not identity-relevant) ---
    max_attempts: int = 4
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    #: fractional spread of the seeded backoff jitter: each capped
    #: exponential delay is scaled by a factor in ``[1-j, 1+j]`` drawn
    #: from an RNG seeded by the job's input fingerprint, so a fleet of
    #: concurrent jobs never retries in lockstep yet every single job's
    #: delays replay exactly from its own identity
    backoff_jitter: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff parameters must be non-negative")
        if not 0.0 <= self.backoff_jitter <= 1.0:
            raise ValueError("backoff_jitter must be within [0, 1]")
        for name, value in (
            ("stage_timeout_s", self.stage_timeout_s),
            ("job_timeout_s", self.job_timeout_s),
            ("retention_interval_s", self.retention_interval_s),
        ):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite (got {value})"
                )
        if self.ecc not in (None, "off", "secded"):
            raise ValueError(
                f"ecc must be 'off' or 'secded' (got {self.ecc!r})"
            )
        if self.resilience is not None and not isinstance(
            self.resilience, ResiliencePolicy
        ):
            object.__setattr__(
                self, "resilience", ResiliencePolicy.named(self.resilience)
            )

    def identity_dict(self) -> dict:
        """The fields a resume must match exactly."""
        return {
            "k": self.k,
            "min_count": self.min_count,
            "contig_mode": self.contig_mode,
            "scaffold": self.scaffold,
            "min_contig_length": self.min_contig_length,
            "simplify": self.simplify,
            "resilience": (
                None
                if self.resilience is None
                else self.resilience.state_dict()
            ),
            "engine": self.engine,
            "ecc": self.ecc,
            "retention_interval_s": self.retention_interval_s,
        }

    def integrity_config(self) -> "IntegrityConfig | None":
        """The integrity engine this job asks for (``None`` for none)."""
        if self.ecc is None and self.retention_interval_s is None:
            return None
        from repro.core.integrity import IntegrityConfig

        kwargs: dict = {"ecc": self.ecc or "secded"}
        if self.retention_interval_s is not None:
            kwargs["retention_interval_s"] = self.retention_interval_s
        return IntegrityConfig(**kwargs)


@dataclass(frozen=True)
class JobDecision:
    """One recorded retry decision."""

    stage: str
    attempt: int
    action: str
    error: str
    backoff_s: float


@dataclass
class JobReport:
    """What the job layer saw and decided during one run."""

    job_dir: str
    resumed: bool = False
    resumed_from: str | None = None
    stages_run: list[str] = field(default_factory=list)
    decisions: list[JobDecision] = field(default_factory=list)
    completed: bool = False

    def __str__(self) -> str:
        source = self.resumed_from if self.resumed else "fresh start"
        actions = (
            ", ".join(
                f"{d.stage}#{d.attempt}:{d.action}" for d in self.decisions
            )
            or "none"
        )
        return (
            f"job={self.job_dir} from={source} "
            f"stages={'+'.join(self.stages_run) or '-'} "
            f"decisions=[{actions}] "
            f"completed={self.completed}"
        )


@dataclass(frozen=True)
class JobOutcome:
    """A finished (or resumed-to-finished) job."""

    result: AssemblyResult
    report: JobReport


class JobRunner:
    """Run one checkpointed, deadline-bounded assembly job.

    Args:
        job_dir: journal directory (created on first run).
        config: the job definition.
        pim_factory: builds the platform for a fresh start (defaults to
            sizing a device to the read set); a resume from a journaled
            record reconstructs the platform from the snapshot instead.
        watchdog: inject a pre-built watchdog (tests use ``on_tick`` to
            simulate crashes); defaults to one wired from the config's
            deadline budgets, or none when no budget is set.
        sleep: backoff sleeper (injectable for tests).
    """

    def __init__(
        self,
        job_dir: "str | Path",
        config: JobConfig,
        pim_factory: "Callable[[Sequence], PimAssembler] | None" = None,
        watchdog: Watchdog | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.journal = JobJournal(job_dir)
        self.config = config
        self.pim_factory = pim_factory
        self._external_watchdog = watchdog
        self._sleep = sleep
        self._pim: PimAssembler | None = None
        self._pipeline: PimPipeline | None = None
        self._state: PipelineState | None = None
        self._backoff_rng: "random.Random | None" = None
        self.report = JobReport(job_dir=str(job_dir))

    # ----- public API -------------------------------------------------------

    def run(self, reads: Iterable, resume: bool = False) -> JobOutcome:
        """Execute (or resume) the job to completion.

        Raises:
            JournalError: resume requested without (or against a
                mismatched) journal, or fresh start into an existing one.
            JournalLockedError: another live runner holds this job
                directory's exclusive lock (double-resume hazard).
            StageTimeoutError: a deadline expired; the journal still
                holds the last completed boundary — resume later.
            JobFailedError: the retry ladder was exhausted.
        """
        reads = list(reads)
        fingerprint = reads_fingerprint(reads)
        # backoff jitter replays deterministically from the job identity
        self._backoff_rng = random.Random(int(fingerprint[:16], 16))
        try:
            with self.journal.lock().holding():
                return self._run_locked(reads, fingerprint, resume)
        except ReproError as exc:
            # leave a post-mortem: the observability session's flight
            # recorder (when one is active) dumps its rings of recent
            # commands/spans/events next to the journal
            session = active_session()
            if session is not None:
                session.dump_flight(
                    self.journal.root,
                    reason=f"{type(exc).__name__}: {exc}",
                )
            raise

    def _run_locked(
        self, reads: list, fingerprint: str, resume: bool
    ) -> JobOutcome:
        record = self._open_journal(reads, fingerprint, resume)

        if record is not None and record[0].stage == RESULT_STAGE:
            # the job already finished — rehydrate the stored result
            self._restore_payload(record[1])
            self.report.completed = True
            return JobOutcome(self._rehydrate_result(record[1]), self.report)

        if record is not None:
            self._restore_payload(record[1])
        else:
            self._fresh_start(reads)

        completed = () if record is None else record[0].stage
        remaining = self._remaining_stages(completed)

        watchdog = self._external_watchdog
        if watchdog is None and (
            self.config.stage_timeout_s is not None
            or self.config.job_timeout_s is not None
        ):
            watchdog = Watchdog(
                job_budget_s=self.config.job_timeout_s,
                stage_budget_s=self.config.stage_timeout_s,
            )
        if watchdog is None:
            for stage in remaining:
                self._run_stage(stage, reads, watchdog=None)
        else:
            with watchdog.active():
                for stage in remaining:
                    self._run_stage(stage, reads, watchdog=watchdog)

        result = self._pipeline.result(self._state)
        self.journal.append(RESULT_STAGE, self._payload(RESULT_STAGE))
        self.report.completed = True
        return JobOutcome(result, self.report)

    def resume(self, reads: Iterable) -> JobOutcome:
        """Shorthand for :meth:`run` with ``resume=True``."""
        return self.run(reads, resume=True)

    # ----- journal lifecycle ------------------------------------------------

    def _open_journal(self, reads, fingerprint: str, resume: bool):
        if resume:
            stored = self.journal.load_config()  # raises when absent
            if stored.get("input_sha256") != fingerprint:
                raise JournalError(
                    "input reads do not match the journaled job "
                    f"(journal {stored.get('input_sha256', '?')[:12]}..., "
                    f"input {fingerprint[:12]}...)"
                )
            config = stored.get("config")
            if isinstance(config, dict) and "batch_reads" in config:
                # journals written while reads could be batched into
                # hashmap rounds record the (default) null batch size
                config = dict(config)
                if config.pop("batch_reads") is not None:
                    raise JournalError(
                        "the journaled job batches reads into hashmap "
                        "rounds, which is no longer supported; start "
                        "it afresh instead of resuming"
                    )
            if config != self.config.identity_dict():
                raise JournalError(
                    "job configuration does not match the journal; a "
                    "resume must use the original k/engine/policy settings"
                )
            self.report.resumed = True
            record = self.journal.latest()
            self.report.resumed_from = (
                record[0].stage if record is not None else "start"
            )
            return record
        self.journal.create(
            {
                "config": self.config.identity_dict(),
                "input_sha256": fingerprint,
                "reads": len(reads),
            }
        )
        return None

    @staticmethod
    def _remaining_stages(completed: "str | tuple") -> list[str]:
        if not completed:
            return list(STAGE_NAMES)
        index = STAGE_NAMES.index(completed)
        return list(STAGE_NAMES[index + 1 :])

    # ----- execution state --------------------------------------------------

    def _fresh_start(self, reads) -> None:
        if self.pim_factory is not None:
            pim = self.pim_factory(reads)
        else:
            pim = _sized_device(reads, self.config.k)
        if self.config.resilience is not None:
            pim.protect(self.config.resilience)
        integrity = self.config.integrity_config()
        if integrity is not None and pim.integrity is None:
            # a pim_factory may have pre-attached its own engine; the
            # job config only fills the gap, never overrides it
            pim.attach_integrity(integrity)
        self._attach(pim, PipelineState())

    def _attach(self, pim: PimAssembler, state: PipelineState) -> None:
        self._pim = pim
        self._state = state
        self._pipeline = PimPipeline(
            pim,
            k=self.config.k,
            min_count=self.config.min_count,
            contig_mode=self.config.contig_mode,
            scaffold=self.config.scaffold,
            min_contig_length=self.config.min_contig_length,
            simplify=self.config.simplify,
            resilience=None,  # the engine is attached/restored on pim
            engine=self.config.engine,
        )

    def _payload(self, stage: str) -> dict:
        """One journal record: the complete post-stage execution state."""
        state = self._state
        payload = {
            "stage": stage,
            "platform": self._pim.state_dict(),
            "counter": (
                None if state.counter is None else state.counter.state_dict()
            ),
            "counts": (
                None
                if state.counts is None
                else [[int(k), int(v)] for k, v in state.counts.items()]
            ),
            "graph": None if state.graph is None else graph_state(state.graph),
            "degrees": (
                None
                if state.degrees is None
                else [
                    [[int(k), int(v)] for k, v in degree.items()]
                    for degree in state.degrees
                ]
            ),
            "contigs": (
                None if state.contigs is None else contigs_state(state.contigs)
            ),
            "scaffolds": scaffolds_state(state.scaffolds),
        }
        if stage == RESULT_STAGE:
            payload["kmer_table_size"] = len(state.counter)
        return payload

    def _restore_payload(self, payload: dict) -> None:
        """Rebuild the execution state from one journal record.

        Records written before the engine was fixed per job also carry
        a ``"runtime"`` key; it is ignored, the config names the engine.
        """
        from repro.assembly.hashmap import PimKmerCounter

        pim = PimAssembler.from_state(payload["platform"])
        state = PipelineState()
        if payload["counter"] is not None:
            state.counter = PimKmerCounter.from_state(
                pim, payload["counter"], engine=self.config.engine
            )
        if payload["counts"] is not None:
            state.counts = Counter(
                {int(k): int(v) for k, v in payload["counts"]}
            )
        if payload["graph"] is not None:
            state.graph = graph_from_state(payload["graph"])
        if payload["degrees"] is not None:
            in_pairs, out_pairs = payload["degrees"]
            state.degrees = (
                {int(k): int(v) for k, v in in_pairs},
                {int(k): int(v) for k, v in out_pairs},
            )
        if payload["contigs"] is not None:
            state.contigs = contigs_from_state(payload["contigs"])
        state.scaffolds = scaffolds_from_state(payload["scaffolds"])
        self._attach(pim, state)

    def _rehydrate_result(self, payload: dict) -> AssemblyResult:
        pim = self._pim
        engine = pim.resilience
        return AssemblyResult(
            contigs=self._state.contigs,
            scaffolds=self._state.scaffolds,
            graph=self._state.graph,
            kmer_table_size=int(payload["kmer_table_size"]),
            hashmap=pim.stats.totals("hashmap"),
            debruijn=pim.stats.totals("debruijn"),
            traverse=pim.stats.totals("traverse"),
            resilience=(
                engine.report(stages=list(STAGE_NAMES))
                if engine is not None
                else None
            ),
            integrity=(
                pim.integrity.counts()
                if pim.integrity is not None
                else None
            ),
        )

    # ----- the retry ladder -------------------------------------------------

    def _run_stage(self, stage: str, reads, watchdog: Watchdog | None) -> None:
        entry = self._payload(f"entry-{stage}")  # in-memory rollback point
        attempt = 0
        while True:
            attempt += 1
            try:
                with span(
                    f"job.attempt.{stage}",
                    lane="job",
                    attempt=attempt,
                    engine=self.config.engine,
                ):
                    self._execute_stage(stage, reads, watchdog)
                with span(f"job.checkpoint.{stage}", lane="job"):
                    self.journal.append(stage, self._payload(stage))
                self.report.stages_run.append(stage)
                return
            except StageTimeoutError as exc:
                self._decide(stage, attempt, "abort-timeout", exc, 0.0)
                raise
            except RETRYABLE_ERRORS as exc:
                if attempt >= self.config.max_attempts:
                    self._decide(stage, attempt, "give-up", exc, 0.0)
                    raise JobFailedError(stage, attempt, exc) from exc
                backoff = self._backoff(attempt)
                action = self._quarantine_or_retry(exc)
                self._decide(stage, attempt, action, exc, backoff)
                inc("job.retries")
                if backoff > 0:
                    self._sleep(backoff)
                self._rollback(entry)

    def _execute_stage(self, stage, reads, watchdog: Watchdog | None) -> None:
        runner = {
            "hashmap": lambda: self._pipeline.run_hashmap(reads, self._state),
            "debruijn": lambda: self._pipeline.run_debruijn(self._state),
            "traverse": lambda: self._pipeline.run_traverse(self._state),
        }[stage]
        if watchdog is None:
            runner()
        else:
            with watchdog.stage(stage):
                runner()

    def _backoff(self, attempt: int) -> float:
        """Capped exponential delay with seeded, reproducible jitter.

        The exponential ramp is scaled by a factor drawn uniformly from
        ``[1 - jitter, 1 + jitter]`` on the fingerprint-seeded RNG —
        concurrent jobs with different inputs spread out instead of
        retrying in lockstep, while re-running one job replays its
        exact delay sequence.  The cap bounds the jittered value too.
        """
        backoff = min(
            self.config.backoff_cap_s,
            self.config.backoff_base_s * (2 ** (attempt - 1)),
        )
        jitter = self.config.backoff_jitter
        if jitter > 0.0 and backoff > 0.0 and self._backoff_rng is not None:
            backoff *= 1.0 + jitter * (2.0 * self._backoff_rng.random() - 1.0)
            backoff = min(self.config.backoff_cap_s, backoff)
        return backoff

    def _quarantine_or_retry(self, error: BaseException) -> str:
        """Pick the next ladder rung: retire the sub-array the error
        names (once, when a resilience engine is attached), otherwise
        plainly retry (re-staged by backoff)."""
        key = getattr(error, "subarray_key", None)
        engine = self._pim.resilience
        if key is not None and engine is not None and not engine.is_quarantined(
            tuple(key)
        ):
            engine.quarantine(tuple(key))
            return f"quarantine-{','.join(map(str, key))}"
        return "retry"

    def _rollback(self, entry: dict) -> None:
        """Restore the stage-entry snapshot (keeping quarantines)."""
        self._restore_payload(entry)
        # quarantine decisions must survive too: re-apply to the
        # restored engine (snapshot predates the decision)
        for decision in self.report.decisions:
            if decision.action.startswith("quarantine-"):
                key = tuple(
                    int(p)
                    for p in decision.action[len("quarantine-"):].split(",")
                )
                if self._pim.resilience is not None:
                    self._pim.resilience.quarantine(key)

    def _decide(
        self,
        stage: str,
        attempt: int,
        action: str,
        error: BaseException,
        backoff_s: float,
    ) -> None:
        decision = JobDecision(
            stage=stage,
            attempt=attempt,
            action=action,
            error=f"{type(error).__name__}: {error}",
            backoff_s=backoff_s,
        )
        self.report.decisions.append(decision)
        self.journal.log_decision(asdict(decision))
        inc(f"job.decisions.{action.split('-')[0]}")
        event(
            "job.decision",
            lane="job",
            stage=stage,
            attempt=attempt,
            action=action,
            error=decision.error,
        )
