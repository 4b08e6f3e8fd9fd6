"""Typed exception hierarchy for the PIM-Assembler reproduction.

Every error the library raises on the execution/resilience paths is a
:class:`ReproError` subclass, so callers can catch the whole family (or
one precise failure mode) without string-matching messages.  Each class
also inherits the builtin its call site historically raised
(``ValueError`` / ``MemoryError``), so pre-existing ``except`` clauses
and tests keep working.

Hierarchy::

    ReproError
    ├── FaultConfigError(ValueError)      — bad fault/policy parameters
    ├── CapacityError(ValueError)         — device/sub-array capacity exceeded
    ├── PhaseActiveError(RuntimeError)    — ledger op that needs no open phase
    ├── BufferStateError(RuntimeError)    — GRB read before load
    ├── AllocationError(MemoryError)      — row allocator exhausted
    ├── TableFullError(MemoryError)       — k-mer table region full
    ├── SubarrayQuarantinedError          — touched a quarantined sub-array
    ├── InputError                        — malformed/unusable user input
    │   └── TraceFormatError              — unparseable AAP trace document
    ├── TraceHazardError                  — inline checker caught a hazard
    ├── StageTimeoutError                 — a deadline budget expired
    ├── JournalError                      — job journal missing/corrupt/mismatched
    │   └── JournalLockedError            — journal held by another runner
    ├── JobFailedError                    — retry ladder exhausted
    ├── AdmissionError                    — service refused to admit a job
    │   └── CircuitOpenError              — tenant circuit breaker is open
    └── VerificationError
        └── UncorrectableFaultError       — retries exhausted, result corrupt
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of every error raised by the repro library."""


class FaultConfigError(ReproError, ValueError):
    """Invalid fault-model or resilience-policy configuration."""


class CapacityError(ReproError, ValueError):
    """A workload exceeds the device's capacity (partition over more chips)."""


class PhaseActiveError(ReproError, RuntimeError):
    """A :class:`~repro.core.stats.StatsLedger` operation that requires
    no open phase ran while one was active.

    Merging or snapshotting a ledger mid-phase would silently split one
    phase's events across two records (or mix partial totals into the
    target), so both refuse instead.  Inherits ``RuntimeError`` because
    the snapshot path historically raised that builtin.
    """


class BufferStateError(ReproError, RuntimeError):
    """A shared buffer (the MAT's global row buffer) was read before it
    was loaded.

    Inherits ``RuntimeError`` because the GRB read path historically
    raised that builtin.
    """


class AllocationError(ReproError, MemoryError):
    """The bump allocator ran out of usable data rows in a sub-array."""


class TableFullError(ReproError, MemoryError):
    """A sub-array's k-mer table region has no free slots left."""


class SubarrayQuarantinedError(ReproError):
    """An operation targeted a sub-array the resilience engine retired.

    Attributes:
        subarray_key: the quarantined ``(bank, mat, subarray)`` triple.
    """

    def __init__(
        self, subarray_key: tuple[int, int, int], message: str | None = None
    ) -> None:
        self.subarray_key = subarray_key
        super().__init__(
            message or f"sub-array {subarray_key} is quarantined"
        )


class InputError(ReproError):
    """User-supplied input (reads file, CLI parameters) is unusable.

    The CLI maps this family to a one-line message and a clean nonzero
    exit code instead of a traceback.
    """


class TraceFormatError(InputError):
    """An AAP trace document fails to parse or violates the envelope.

    Distinct from a verifier *finding*: a finding is a hazard in a
    well-formed command stream (exit code 1 from ``repro
    verify-trace``); this error means the file is not a trace document
    at all (exit code 2, like every other :class:`InputError`).
    """


class TraceHazardError(ReproError):
    """The inline AAP checker caught a hazard at the issuing call site.

    Raised only in the opt-in strict mode of
    :class:`repro.analysis.verifier.InlineChecker`; the offline
    ``repro verify-trace`` path reports the same hazards as findings
    instead of raising.
    """


class StageTimeoutError(ReproError):
    """A cooperative deadline budget expired inside a pipeline stage.

    Raised by the watchdog (:mod:`repro.runtime.watchdog`) at one of
    the cancellation checkpoints the compute loops poll.  The job layer
    guarantees the on-disk journal still holds the last completed stage
    boundary, so the job remains resumable.

    Attributes:
        stage: the stage that was executing (``"hashmap"`` / ...).
        scope: ``"stage"`` when a per-stage budget expired, ``"job"``
            when the whole-job budget did.
        budget_s: the configured budget in seconds.
        elapsed_s: wall-clock seconds consumed when the check fired.
    """

    def __init__(
        self, stage: str, scope: str, budget_s: float, elapsed_s: float
    ) -> None:
        self.stage = stage
        self.scope = scope
        self.budget_s = budget_s
        self.elapsed_s = elapsed_s
        super().__init__(
            f"{scope} deadline of {budget_s:.3f}s exceeded after "
            f"{elapsed_s:.3f}s (in stage {stage!r}); job is resumable "
            "from the last journaled checkpoint"
        )


class JournalError(ReproError):
    """A job journal is missing, corrupt, or belongs to another job."""


class JournalLockedError(JournalError):
    """Another live runner holds the journal's exclusive MANIFEST lock.

    Two :class:`~repro.runtime.jobs.JobRunner` processes pointed at the
    same ``--job-dir`` would interleave journal writes and corrupt the
    manifest prefix; the second acquirer gets this error instead.  The
    lock is advisory and process-scoped (``flock``), so it can never go
    stale after ``kill -9`` — a dead holder releases it automatically.

    Attributes:
        job_dir: the contended journal directory.
    """

    def __init__(self, job_dir: str, message: "str | None" = None) -> None:
        self.job_dir = job_dir
        super().__init__(
            message
            or f"job journal at {job_dir} is locked by another running "
            "job; wait for it to finish or choose a different --job-dir"
        )


class AdmissionError(ReproError):
    """The assembly service refused to admit (or shed) a job.

    Load-shedding is a *typed* outcome, not a crash: quota overruns,
    oversized inputs and saturated queues all surface as this family so
    callers (and the CLI, which maps it to its own exit code) can tell
    "the service is protecting itself" from "the job is broken".

    Attributes:
        tenant: the submitting tenant id.
        reason: stable machine-readable reason code, e.g.
            ``"tenant-queue-full"`` / ``"service-queue-full"`` /
            ``"input-too-large"`` / ``"breaker-open"``.
    """

    def __init__(self, tenant: str, reason: str, message: str) -> None:
        self.tenant = tenant
        self.reason = reason
        super().__init__(message)


class CircuitOpenError(AdmissionError):
    """A tenant's circuit breaker is open after repeated job failures.

    New submissions from the tenant are shed until the breaker's
    cooldown (measured in scheduling rounds, not wall-clock) elapses
    and a half-open probe job succeeds.

    Attributes:
        retry_after_rounds: scheduling rounds until a probe is allowed.
    """

    def __init__(self, tenant: str, retry_after_rounds: int) -> None:
        self.retry_after_rounds = retry_after_rounds
        super().__init__(
            tenant,
            "breaker-open",
            f"tenant {tenant!r} circuit breaker is open after repeated "
            f"failures; retry after {retry_after_rounds} scheduling "
            "round(s)",
        )


class JobFailedError(ReproError):
    """Every rung of the retry/degradation ladder was exhausted.

    Attributes:
        stage: the stage that could not be completed.
        attempts: total stage executions (1 original + retries).
        last_error: the exception that ended the final attempt.
    """

    def __init__(
        self, stage: str, attempts: int, last_error: BaseException
    ) -> None:
        self.stage = stage
        self.attempts = attempts
        self.last_error = last_error
        super().__init__(
            f"stage {stage!r} failed after {attempts} attempts across the "
            f"degradation ladder: {last_error}"
        )


class VerificationError(ReproError):
    """An in-memory verification step failed."""


class UncorrectableFaultError(VerificationError):
    """A verified operation stayed corrupt after every bounded retry.

    Raised only under ``ResiliencePolicy(raise_on_uncorrected=True)``;
    the default graceful-degradation mode records the event in the
    :class:`~repro.core.resilience.ResilienceEngine` and continues.

    Attributes:
        subarray_key: where the operation executed.
        mechanism: the fault mechanism (``"compute2"`` / ``"tra"`` / ...).
        attempts: total executions (1 original + retries).
    """

    def __init__(
        self,
        subarray_key: tuple[int, int, int],
        mechanism: str,
        attempts: int,
    ) -> None:
        self.subarray_key = subarray_key
        self.mechanism = mechanism
        self.attempts = attempts
        super().__init__(
            f"{mechanism} op in sub-array {subarray_key} still corrupt "
            f"after {attempts} attempts"
        )
