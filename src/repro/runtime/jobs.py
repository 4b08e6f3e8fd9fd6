"""Crash-tolerant, deadline-bounded assembly jobs above ``PimPipeline``.

PR 1's resilience engine recovers *device* faults op by op; this layer
recovers *job* faults: a process death, a wall-clock overrun, or a
stage whose in-memory recovery gave out.  One :class:`JobRunner` run is
one job:

* after every Fig. 5a stage boundary the execution state that cannot
  be derived — platform memory, stats ledger, fault-RNG stream,
  resilience events, k-mer table shadow and its readback — is
  journaled to a content-hashed on-disk record
  (:mod:`repro.runtime.checkpoint`), so ``kill -9`` at any point loses
  at most one stage of work and a resumed run finishes
  **bit-identically** to an uninterrupted one; the graph and contigs
  are host functions of the readback and are rebuilt on restore;
* a :class:`~repro.runtime.watchdog.Watchdog` enforces per-stage and
  whole-job deadline budgets through the cooperative cancellation
  checkpoints inside the hashmap/adjacency/euler loops; the raised
  :class:`~repro.errors.StageTimeoutError` always leaves a resumable
  journal behind;
* a failed stage is re-run only after a quarantine: when the error
  names a sub-array that is not yet quarantined and a resilience
  engine is attached, that sub-array is retired and the stage rolls
  back to the last durable record and runs again.  Any other failure
  gives up at once — the fault and rot streams are seeded and restored
  on rollback, so a retry with nothing changed would replay the same
  failure.  The job runs on the engine its :class:`JobConfig` names
  from first dispatch to completion: the bulk engine is bit-identical
  to the scalar one, so switching engines could never change an
  outcome.  Every decision is journaled and surfaces in the
  :class:`JobReport`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.assembly.contigs import assemble_contigs
from repro.assembly.debruijn import DeBruijnGraph
from repro.assembly.hashmap import PimKmerCounter
from repro.assembly.pipeline import (
    STAGE_NAMES,
    AssemblyResult,
    PimPipeline,
    PipelineState,
    _sized_device,
)
from repro.core.integrity import IntegrityConfig
from repro.core.platform import PimAssembler
from repro.core.resilience import ResiliencePolicy
from repro.genome.kmer import MAX_PACKED_K
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
    decode_words,
    encode_words,
    require_keys,
)
from repro.runtime.watchdog import Watchdog

__all__ = ["JobConfig", "JobDecision", "JobReport", "JobOutcome", "JobRunner"]

#: the journal stage name of the completed-job record
RESULT_STAGE = "result"

#: errors the retry ladder re-attempts after quarantining the
#: sub-array they name (fault-class failures the resilience layer could
#: not absorb, plus capacity collapses a quarantine re-plan may route
#: around)
RETRYABLE_ERRORS = (
    UncorrectableFaultError,
    VerificationError,
    SubarrayQuarantinedError,
    TableFullError,
)

#: attempts per stage: the first run plus at most three re-runs, each
#: after quarantining one more sub-array
MAX_ATTEMPTS = 4


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
    job.  Deadline budgets may change between resume attempts.  A bad
    value raises :class:`ValueError` here, before any journal exists.
    """

    k: int
    min_count: int = 1
    min_contig_length: int = 0
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

    def __post_init__(self) -> None:
        if not 2 <= self.k <= MAX_PACKED_K:
            raise ValueError(
                f"k must be within [2, {MAX_PACKED_K}] (got {self.k})"
            )
        if self.engine not in ("scalar", "bulk"):
            raise ValueError(
                f"engine must be 'scalar' or 'bulk' (got {self.engine!r})"
            )
        if self.min_count < 1:
            raise ValueError(f"min_count must be >= 1 (got {self.min_count})")
        if self.min_contig_length < 0:
            raise ValueError(
                f"min_contig_length must be >= 0 (got {self.min_contig_length})"
            )
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
            "min_contig_length": self.min_contig_length,
            "resilience": (
                None
                if self.resilience is None
                else self.resilience.state_dict()
            ),
            "engine": self.engine,
            "ecc": self.ecc,
            "retention_interval_s": self.retention_interval_s,
        }


@dataclass(frozen=True)
class JobDecision:
    """One recorded retry decision."""

    stage: str
    attempt: int
    action: str
    error: str


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
    """

    def __init__(
        self,
        job_dir: "str | Path",
        config: JobConfig,
        pim_factory: "Callable[[Sequence], PimAssembler] | None" = None,
        watchdog: Watchdog | None = None,
    ) -> None:
        self.journal = JobJournal(job_dir)
        self.config = config
        self.pim_factory = pim_factory
        self._external_watchdog = watchdog
        self._pim: PimAssembler | None = None
        self._pipeline: PimPipeline | None = None
        self._state: PipelineState | None = None
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
            JobFailedError: a stage failed with no sub-array left to
                quarantine, or after :data:`MAX_ATTEMPTS` attempts.
        """
        reads = list(reads)
        fingerprint = reads_fingerprint(reads)
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
            # the job already finished — the restore rebuilt its result
            self._restore_payload(record[1])
            self.report.completed = True
            return JobOutcome(self._pipeline.result(self._state), self.report)

        if record is not None:
            snapshot = record[1]
            self._restore_payload(snapshot)
        else:
            self._fresh_start(reads)
            # the one rollback point not on disk; every later stage
            # rolls back to the record its predecessor journaled
            snapshot = self._payload("start")
        remaining = self._remaining_stages(snapshot["stage"])

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
                snapshot = self._run_stage(stage, reads, None, snapshot)
        else:
            with watchdog.active():
                for stage in remaining:
                    snapshot = self._run_stage(stage, reads, watchdog, snapshot)

        result = self._pipeline.result(self._state)
        # nothing runs after traverse, so its record is the result's
        self.journal.append(RESULT_STAGE, dict(snapshot, stage=RESULT_STAGE))
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
            if stored.get("config") != self.config.identity_dict():
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
    def _remaining_stages(completed: str) -> list[str]:
        """The stages still to run after a record of stage
        ``completed`` (``"start"``: the fresh-start snapshot)."""
        if completed == RESULT_STAGE:
            return []
        if completed not in STAGE_NAMES:
            return list(STAGE_NAMES)
        return list(STAGE_NAMES[STAGE_NAMES.index(completed) + 1 :])

    # ----- execution state --------------------------------------------------

    def _fresh_start(self, reads) -> None:
        if self.pim_factory is not None:
            pim = self.pim_factory(reads)
        else:
            pim = _sized_device(reads, self.config.k)
        if self.config.resilience is not None:
            pim.protect(self.config.resilience)
        integrity = IntegrityConfig.requested(
            self.config.ecc, self.config.retention_interval_s
        )
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
            min_contig_length=self.config.min_contig_length,
            resilience=None,  # the engine is attached/restored on pim
            engine=self.config.engine,
        )

    def _payload(self, stage: str) -> dict:
        """One journal record: the post-stage state nothing can derive."""
        state = self._state
        return {
            "stage": stage,
            "platform": self._pim.state_dict(),
            "counter": (
                None if state.counter is None else state.counter.state_dict()
            ),
            # the readback's values; its k-mers are the counter's
            "counts": (
                None if state.counts is None else encode_words(state.counts[1])
            ),
        }

    def _restore_payload(self, payload: dict) -> None:
        """Rebuild the execution state from one journal record.

        The graph (once debruijn has completed) and the contigs (once
        traverse has) are rebuilt from the journaled ``counts`` by the
        same host functions the stages call; neither charges the
        ledger.  The payload is only read, never kept, so one record
        can serve as the rollback point of several attempts.
        """
        require_keys(
            payload, ("stage", "platform", "counter", "counts"), "journal record"
        )
        pim = PimAssembler.from_state(payload["platform"])
        state = PipelineState()
        if payload["counter"] is not None:
            state.counter = PimKmerCounter.from_state(
                pim, payload["counter"], engine=self.config.engine
            )
        if payload["counts"] is not None:
            if state.counter is None:
                raise JournalError("record holds counts but no counter")
            kmers = state.counter.kmers
            counts = decode_words(payload["counts"], "<i8", "counts")
            if counts.size != kmers.size:
                raise JournalError(
                    f"record holds {counts.size} counts for "
                    f"{kmers.size} stored k-mers"
                )
            state.counts = (kmers, counts)
        remaining = self._remaining_stages(payload["stage"])
        if "debruijn" not in remaining:
            state.graph = DeBruijnGraph.from_counts(
                *state.counts, k=self.config.k, min_count=self.config.min_count
            )
        if "traverse" not in remaining:
            state.contigs = assemble_contigs(
                state.graph, min_length=self.config.min_contig_length
            )
        self._attach(pim, state)

    # ----- the retry ladder -------------------------------------------------

    def _run_stage(
        self, stage: str, reads, watchdog: Watchdog | None, entry: dict
    ) -> dict:
        """Run one stage, rolling back to ``entry`` (the last durable
        record, or the fresh-start snapshot) before each retry; returns
        the stage's own record."""
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
                    record = self._payload(stage)
                    self.journal.append(stage, record)
                self.report.stages_run.append(stage)
                return record
            except StageTimeoutError as exc:
                self._decide(stage, attempt, "abort-timeout", exc)
                raise
            except RETRYABLE_ERRORS as exc:
                key = None if attempt >= MAX_ATTEMPTS else self._quarantine(exc)
                if key is None:
                    self._decide(stage, attempt, "give-up", exc)
                    raise JobFailedError(stage, attempt, exc) from exc
                self._decide(
                    stage, attempt, f"quarantine-{','.join(map(str, key))}", exc
                )
                inc("job.retries")
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

    def _quarantine(self, error: BaseException) -> "tuple | None":
        """Retire the sub-array the error names, when a resilience
        engine is attached and has not yet quarantined it, and return
        its key.  ``None`` means nothing changed, so a re-run would
        replay the failure exactly."""
        key = getattr(error, "subarray_key", None)
        engine = self._pim.resilience
        if key is None or engine is None or engine.is_quarantined(tuple(key)):
            return None
        engine.quarantine(tuple(key))
        return tuple(key)

    def _rollback(self, entry: dict) -> None:
        """Restore the stage's rollback point (keeping quarantines)."""
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
    ) -> None:
        decision = JobDecision(
            stage=stage,
            attempt=attempt,
            action=action,
            error=f"{type(error).__name__}: {error}",
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
