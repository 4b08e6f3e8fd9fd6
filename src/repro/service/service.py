"""The multi-tenant assembly service: admit, queue, schedule, survive.

One :class:`AssemblyService` wraps the checkpointed
:class:`~repro.runtime.jobs.JobRunner` with the layer a deployment
needs between "a job" and "heavy traffic":

* **admission control** (:mod:`repro.service.admission`) — per-tenant
  quotas shed overload as typed
  :class:`~repro.errors.AdmissionError`\\ s at submit time;
* **fair scheduling** (:mod:`repro.service.queue`) — bounded
  FIFO-per-tenant queues drained round-robin, one job per scheduling
  round run inline on the calling thread, with the documented fairness
  bound (no tenant with dispatchable work waits more than ``T``
  grants, ``T`` = tenants);
* **deadline propagation** — a submission's ``deadline_s`` becomes the
  watchdog's whole-job budget; a resumed dispatch gets only the
  *remaining* budget, and an exhausted budget is a typed terminal
  outcome, never a hang;
* **crash containment** — a job that dies (a simulated ``SIGKILL``:
  any ``BaseException`` short of ``KeyboardInterrupt``/``SystemExit``,
  which abort the drain) re-queues for journal resume with a capped,
  seeded backoff measured in scheduling rounds; attempts are bounded,
  so every admitted job reaches a terminal state;
* **circuit breaking** (:mod:`repro.service.breaker`) — tenants with
  repeated terminal failures are shed/held until a cooldown and a
  successful probe.

Every dispatch runs the submission's own :class:`JobConfig`: the queue
depth never changes a job's engine or batch size.

Everything the scheduler decides is observable: queue-depth gauges,
per-tenant latency histograms, shed/trip/requeue counters and a
``service`` lane of span events feed the observability layer when a
registry/tracer is active; because jobs run on the scheduling thread,
their stage spans and metrics land in the same session, nested under
``service.drain``.  On top of that sits the health surface:
per-tenant **SLO objectives** with burn-rate tracking, an
**alert-rule evaluator** run once per scheduling round, a JSONL
**audit log** at ``<root>/audit.jsonl`` (sheds, failures, breaker
trips, alert firings, the drain summary), a per-round Prometheus
**exposition** rewrite when a telemetry path is configured,
per-tenant energy attribution via
:func:`~repro.observability.power.lane_scope` around each job, and
**flight-recorder dumps** into the job dir on failures and breaker
trips.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

from repro.errors import (
    AdmissionError,
    InputError,
    ReproError,
    StageTimeoutError,
)
from repro.observability.metrics import (
    active_registry,
    inc,
    observe,
    set_gauge,
)
from repro.observability.power import lane_scope
from repro.observability.session import active_session
from repro.observability.slo import AlertEvaluator, AlertRule, SloObjective, SloTracker
from repro.observability.spans import active_tracer, event, span
from repro.runtime.checkpoint import JobJournal
from repro.runtime.jobs import JobConfig, JobOutcome, JobRunner
from repro.runtime.watchdog import Watchdog
from repro.service.admission import AdmissionController, TenantQuota
from repro.service.breaker import CircuitBreaker
from repro.service.queue import BoundedFifo, RoundRobinArbiter

__all__ = [
    "AssemblyService",
    "GrantRecord",
    "JobTicket",
    "ServiceConfig",
    "ServiceReport",
    "ShedRecord",
]

# ----- ticket states ---------------------------------------------------------

QUEUED = "queued"
RUNNING = "running"
COMPLETED = "completed"
FAILED = "failed"

#: terminal failure kinds a ticket can end in (all typed, none a crash)
FAILURE_KINDS = (
    "error",  # a ReproError the ladder could not absorb
    "input-error",  # the input payload was unusable
    "crash-exhausted",  # dispatch attempts exhausted by process deaths
    "timeout-exhausted",  # dispatch attempts exhausted by stage timeouts
    "deadline-exceeded",  # the submission's whole-job budget ran out
)


@dataclass(frozen=True)
class ServiceConfig:
    """Scheduler-wide knobs (per-tenant quotas live in admission).

    Attributes:
        default_quota: quota applied to tenants without an explicit one.
        max_total_queued: service-wide queued-job bound (backpressure).
        max_dispatches: dispatch attempts per job — 1 fresh run plus
            crash/timeout resumes — before the job fails terminally.
        requeue_base_rounds / requeue_cap_rounds: capped exponential
            backoff (in scheduling rounds) before a crashed/timed-out
            job is eligible to resume, jittered from ``seed``.
        breaker_threshold / breaker_cooldown_rounds: per-tenant circuit
            breaker parameters (consecutive terminal failures to trip,
            rounds until half-open).
        seed: seed of the scheduler's own RNG (requeue jitter); keeps
            whole-service runs replayable.
    """

    default_quota: TenantQuota = TenantQuota()
    max_total_queued: int = 64
    max_dispatches: int = 3
    requeue_base_rounds: int = 1
    requeue_cap_rounds: int = 8
    breaker_threshold: int = 3
    breaker_cooldown_rounds: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_dispatches < 1:
            raise ValueError("max_dispatches must be >= 1")
        if self.requeue_base_rounds < 0 or self.requeue_cap_rounds < 0:
            raise ValueError("requeue backoff rounds must be non-negative")


@dataclass
class JobRequest:
    """Everything one submission carries."""

    tenant: str
    name: str
    reads: list
    config: JobConfig
    deadline_s: "float | None" = None
    stage_timeout_s: "float | None" = None
    input_bytes: int = 0
    pim_factory: "Callable | None" = None
    #: per-dispatch watchdog override (chaos injection hook): called
    #: with the dispatch index; ``None`` return falls back to the
    #: service's deadline-derived watchdog
    watchdog_factory: "Callable[[int], Watchdog | None] | None" = None


@dataclass
class JobTicket:
    """One admitted job's lifecycle, from queue to terminal state."""

    request: JobRequest
    job_dir: Path
    state: str = QUEUED
    failure_kind: "str | None" = None
    error: "str | None" = None
    error_type: "str | None" = None
    outcome: "JobOutcome | None" = None
    dispatches: int = 0
    resumed: bool = False
    submitted_round: int = 0
    next_round: int = 0
    finished_round: "int | None" = None
    submit_ts: float = 0.0
    first_start_ts: "float | None" = None
    end_ts: "float | None" = None
    history: list = field(default_factory=list)

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def name(self) -> str:
        return self.request.name

    @property
    def terminal(self) -> bool:
        return self.state in (COMPLETED, FAILED)

    @property
    def latency_s(self) -> "float | None":
        if self.end_ts is None:
            return None
        return self.end_ts - self.submit_ts

    def describe(self) -> str:
        tail = ""
        if self.state == FAILED:
            tail = f" [{self.failure_kind}: {self.error_type}]"
        return (
            f"{self.tenant}/{self.name}: {self.state} "
            f"after {self.dispatches} dispatch(es)"
            f"{' (resumed)' if self.resumed else ''}{tail}"
        )


@dataclass(frozen=True)
class ShedRecord:
    """One typed admission rejection (kept for the report)."""

    tenant: str
    name: str
    reason: str
    message: str
    round: int


@dataclass(frozen=True)
class GrantRecord:
    """One scheduling grant plus who else was eligible at that moment.

    ``eligible`` is the set the arbiter chose from — the exact data the
    fairness bound quantifies over.
    """

    round: int
    tenant: str
    name: str
    eligible: tuple


class ServiceReport:
    """What the service did during one :meth:`AssemblyService.drain`."""

    def __init__(
        self,
        tickets: list,
        shed: list,
        grants: list,
        rounds: int,
        tenant_slots: tuple,
        breaker_trips: int,
    ) -> None:
        self.tickets: list[JobTicket] = tickets
        self.shed: list[ShedRecord] = shed
        self.grants: list[GrantRecord] = grants
        self.rounds = rounds
        self.tenant_slots = tenant_slots
        self.breaker_trips = breaker_trips

    @property
    def completed(self) -> list:
        return [t for t in self.tickets if t.state == COMPLETED]

    @property
    def failed(self) -> list:
        return [t for t in self.tickets if t.state == FAILED]

    @property
    def fairness_bound(self) -> int:
        """Documented bound: grants another tenant may receive while a
        tenant stays eligible but ungranted (= number of tenant slots)."""
        return max(1, len(self.tenant_slots))

    def fairness_violations(self, bound: "int | None" = None) -> list:
        """Tenants that stayed eligible longer than ``bound`` grants.

        Walks the grant log counting, per tenant, consecutive grants in
        which the tenant was eligible yet some other tenant was
        granted; the round-robin arbiter caps that streak at the number
        of tenant slots.
        """
        limit = self.fairness_bound if bound is None else bound
        streak: dict[str, int] = {}
        violations: list[tuple[str, int]] = []
        for record in self.grants:
            eligible = set(record.eligible)
            for tenant in self.tenant_slots:
                if tenant == record.tenant or tenant not in eligible:
                    # granted, or the eligibility window broke (backoff,
                    # breaker): the bound restarts
                    streak[tenant] = 0
                    continue
                streak[tenant] = streak.get(tenant, 0) + 1
                if streak[tenant] > limit:
                    violations.append((tenant, streak[tenant]))
        return violations

    def summary(self) -> dict:
        return {
            "jobs": len(self.tickets),
            "completed": len(self.completed),
            "failed": len(self.failed),
            "shed": len(self.shed),
            "resumed": sum(1 for t in self.tickets if t.resumed),
            "rounds": self.rounds,
            "breaker_trips": self.breaker_trips,
            "fairness_violations": len(self.fairness_violations()),
        }

    def __str__(self) -> str:
        s = self.summary()
        return (
            f"service: {s['completed']}/{s['jobs']} completed, "
            f"{s['failed']} failed, {s['shed']} shed, "
            f"{s['resumed']} resumed, "
            f"{s['rounds']} rounds, {s['breaker_trips']} breaker trip(s)"
        )


class AssemblyService:
    """Admission-controlled, fairly scheduled batch of assembly jobs.

    Args:
        root: directory holding one job-journal subdirectory per job
            (``<root>/<tenant>/<name>``).
        config: scheduler knobs (:class:`ServiceConfig`).
        quotas: explicit per-tenant quotas (others get the default).
        clock: monotonic-seconds source for latency/deadline tracking
            (injectable for tests).
        sleep: passed through to job runners' retry backoff.
        slos: per-tenant latency objectives (burn rates tracked, fed
            to ``burn_rate(...)`` alert rules).
        alert_rules: rules evaluated once per scheduling round when a
            metrics registry is active.
        telemetry_path: when set, the Prometheus exposition is
            rewritten (atomically) here every scheduling round and once
            more when the drain finishes.
    """

    def __init__(
        self,
        root: "str | Path",
        config: "ServiceConfig | None" = None,
        quotas: "Mapping[str, TenantQuota] | None" = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
        slos: "list[SloObjective] | None" = None,
        alert_rules: "list[AlertRule] | None" = None,
        telemetry_path: "str | Path | None" = None,
    ) -> None:
        self.root = Path(root)
        self.config = config or ServiceConfig()
        self.admission = AdmissionController(
            default_quota=self.config.default_quota,
            quotas=dict(quotas or {}),
            max_total_queued=self.config.max_total_queued,
        )
        self.arbiter = RoundRobinArbiter(sorted(quotas or ()))
        self._clock = clock
        self._sleep = sleep
        self._queues: dict[str, BoundedFifo] = {}
        self._breakers: dict[str, CircuitBreaker] = {}
        self._names: dict[str, set] = {}
        self._tickets: list[JobTicket] = []
        self._shed: list[ShedRecord] = []
        self._grants: list[GrantRecord] = []
        self._round = 0
        self._rng = random.Random(self.config.seed)
        self.slo = SloTracker(slos)
        self._alert_rules = list(alert_rules or [])
        self._evaluator: "AlertEvaluator | None" = None
        self.telemetry_path = (
            Path(telemetry_path) if telemetry_path is not None else None
        )
        self.audit_path = self.root / "audit.jsonl"

    # ----- tenant state -----------------------------------------------------

    def _tenant_state(self, tenant: str) -> tuple:
        if tenant not in self._queues:
            quota = self.admission.quota_for(tenant)
            self._queues[tenant] = BoundedFifo(quota.max_queued)
            self._breakers[tenant] = CircuitBreaker(
                tenant,
                failure_threshold=self.config.breaker_threshold,
                cooldown_rounds=self.config.breaker_cooldown_rounds,
            )
            self._names[tenant] = set()
            self.arbiter.register(tenant)
        return self._queues[tenant], self._breakers[tenant]

    def _total_queued(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def breaker(self, tenant: str) -> CircuitBreaker:
        """The tenant's breaker (created on first touch)."""
        return self._tenant_state(tenant)[1]

    # ----- submission -------------------------------------------------------

    def submit(
        self,
        tenant: str,
        name: str,
        reads: "list | Callable[[], list]",
        config: JobConfig,
        deadline_s: "float | None" = None,
        stage_timeout_s: "float | None" = None,
        input_bytes: "int | None" = None,
        pim_factory: "Callable | None" = None,
        watchdog_factory: "Callable[[int], Watchdog | None] | None" = None,
    ) -> JobTicket:
        """Admit one job, or shed it with a typed error.

        ``reads`` may be the materialized read list or a zero-argument
        loader; the loader runs only *after* every quota check passes,
        so an oversized payload is shed before it is ever parsed, and a
        corrupt one surfaces as a typed
        :class:`~repro.errors.InputError` to the submitter.

        Raises:
            AdmissionError: the submission was shed (see the reason
                code taxonomy in :mod:`repro.service.admission`).
            InputError: the payload failed to load/parse.
        """
        for label, value in (
            ("deadline_s", deadline_s),
            ("stage_timeout_s", stage_timeout_s),
        ):
            if value is not None and value <= 0:
                raise InputError(
                    f"{label} must be a positive number of seconds "
                    f"(got {value})"
                )
        queue, breaker = self._tenant_state(tenant)
        try:
            breaker.check_submission(self._round)
            self.admission.check(
                tenant,
                input_bytes=0 if input_bytes is None else input_bytes,
                tenant_queued=len(queue),
                total_queued=self._total_queued(),
                known_names=self._names[tenant],
                name=name,
            )
        except AdmissionError as exc:
            self._record_shed(tenant, name, exc)
            raise
        if callable(reads):
            reads = list(reads())
        if input_bytes is None:
            # payload size from the materialized reads (bases, 1B each)
            input_bytes = sum(
                len(str(getattr(r, "sequence", r))) for r in reads
            )
            try:
                self.admission.check(
                    tenant,
                    input_bytes=input_bytes,
                    tenant_queued=len(queue),
                    total_queued=self._total_queued(),
                )
            except AdmissionError as exc:
                self._record_shed(tenant, name, exc)
                raise
        ticket = JobTicket(
            request=JobRequest(
                tenant=tenant,
                name=name,
                reads=list(reads),
                config=config,
                deadline_s=deadline_s,
                stage_timeout_s=stage_timeout_s,
                input_bytes=input_bytes,
                pim_factory=pim_factory,
                watchdog_factory=watchdog_factory,
            ),
            job_dir=self.root / tenant / name,
            submitted_round=self._round,
            submit_ts=self._clock(),
        )
        queue.push(ticket)
        self._names[tenant].add(name)
        self._tickets.append(ticket)
        inc("service.admitted")
        self._audit({"kind": "admit", "tenant": tenant, "job": name})
        self._publish_depth(tenant)
        event(
            "service.admit",
            lane="service",
            tenant=tenant,
            job=name,
            queued=len(queue),
        )
        return ticket

    def _record_shed(self, tenant: str, name: str, exc: AdmissionError) -> None:
        self._shed.append(
            ShedRecord(
                tenant=tenant,
                name=name,
                reason=exc.reason,
                message=str(exc),
                round=self._round,
            )
        )
        inc(f"service.shed.{exc.reason}")
        inc("service.shed.total")
        self._audit(
            {
                "kind": "shed",
                "tenant": tenant,
                "job": name,
                "reason": exc.reason,
                "message": str(exc),
            }
        )
        event(
            "service.shed",
            lane="service",
            tenant=tenant,
            job=name,
            reason=exc.reason,
        )

    # ----- scheduling -------------------------------------------------------

    def drain(self) -> ServiceReport:
        """Run every queued job to a terminal state; return the report.

        Each scheduling round grants at most one job and runs it to an
        outcome on the calling thread, then does the round's health
        work.  The loop is hang-free by construction: a round that
        runs nothing still advances the round counter that unblocks
        breaker cooldowns and requeue backoffs, and every job's
        dispatch count is bounded.

        Raises:
            KeyboardInterrupt / SystemExit: raised inside a job; the
                drain stops and the job's journal stays resumable.
        """
        with span("service.drain", lane="service"):
            while self._has_work():
                self._round += 1
                self._run_next()
                self._end_round()
        report = self.report()
        self._audit({"kind": "drain-summary", **report.summary(),
                     "slo": self.slo.snapshot()})
        self._write_telemetry()
        return report

    def report(self) -> ServiceReport:
        return ServiceReport(
            tickets=list(self._tickets),
            shed=list(self._shed),
            grants=list(self._grants),
            rounds=self._round,
            tenant_slots=self.arbiter.slots,
            breaker_trips=sum(b.trips for b in self._breakers.values()),
        )

    def _has_work(self) -> bool:
        return any(not ticket.terminal for ticket in self._tickets)

    def _eligible_tenants(self) -> list:
        eligible = []
        for tenant, queue in self._queues.items():
            head = queue.peek()
            if head is None:
                continue
            if head.next_round > self._round:
                continue
            if not self._breakers[tenant].allows_dispatch(self._round):
                continue
            eligible.append(tenant)
        return eligible

    def _run_next(self) -> None:
        """Grant and run at most one job.  A grant whose deadline ran
        out while it waited fails at dispatch, and the arbiter grants
        again in the same round."""
        while True:
            eligible = self._eligible_tenants()
            tenant = self.arbiter.grant(eligible)
            if tenant is None:
                return
            ticket = self._queues[tenant].pop()
            self._grants.append(
                GrantRecord(
                    round=self._round,
                    tenant=tenant,
                    name=ticket.name,
                    eligible=tuple(sorted(eligible)),
                )
            )
            if self._dispatch(ticket):
                return

    def _dispatch(self, ticket: JobTicket) -> bool:
        """Start one granted job and run it; ``False`` when its deadline
        had already expired (the ticket fails without running)."""
        tenant = ticket.tenant
        self._breakers[tenant].on_dispatch()
        now = self._clock()
        if ticket.first_start_ts is None:
            ticket.first_start_ts = now
        remaining = self._remaining_deadline(ticket, now)
        if remaining is not None and remaining <= 0:
            # the budget died while the job waited in queue/backoff
            self._finish_failure(
                ticket,
                "deadline-exceeded",
                StageTimeoutError(
                    "<queued>", "job", ticket.request.deadline_s or 0.0, 0.0
                ),
            )
            return False
        resume = JobJournal(ticket.job_dir).exists
        watchdog = self._watchdog_for(ticket, remaining)
        ticket.state = RUNNING
        ticket.dispatches += 1
        if resume:
            ticket.resumed = True
        ticket.history.append(
            {
                "round": self._round,
                "dispatch": ticket.dispatches,
                "resume": resume,
            }
        )
        inc("service.dispatches")
        self._publish_depth(tenant)
        event(
            "service.dispatch",
            lane="service",
            tenant=tenant,
            job=ticket.name,
            dispatch=ticket.dispatches,
            resume=resume,
        )
        self._run(ticket, watchdog, resume)
        return True

    def _remaining_deadline(
        self, ticket: JobTicket, now: float
    ) -> "float | None":
        deadline = ticket.request.deadline_s
        if deadline is None:
            return None
        assert ticket.first_start_ts is not None
        return deadline - (now - ticket.first_start_ts)

    def _watchdog_for(
        self, ticket: JobTicket, remaining: "float | None"
    ) -> "Watchdog | None":
        factory = ticket.request.watchdog_factory
        if factory is not None:
            injected = factory(ticket.dispatches)
            if injected is not None:
                return injected
        if remaining is None and ticket.request.stage_timeout_s is None:
            return None
        return Watchdog(
            job_budget_s=remaining,
            stage_budget_s=ticket.request.stage_timeout_s,
        )

    # ----- health surface (SLO / alerts / audit / telemetry) ----------------

    def _audit(self, record: dict) -> None:
        """Append one JSONL record to the service audit log (best effort:
        an unwritable root must not take the scheduler down)."""
        try:
            self.audit_path.parent.mkdir(parents=True, exist_ok=True)
            with self.audit_path.open("a", encoding="utf-8") as handle:
                handle.write(json.dumps({"round": self._round, **record},
                                        default=str) + "\n")
        except OSError:
            pass

    def _end_round(self) -> None:
        """Per-round health work: evaluate alert rules, refresh telemetry."""
        registry = active_registry()
        if self._alert_rules and registry is not None:
            if self._evaluator is None or self._evaluator.registry is not registry:
                session = active_session()
                self._evaluator = AlertEvaluator(
                    self._alert_rules,
                    registry,
                    slo=self.slo,
                    tracer=active_tracer(),
                    flight=session.flight if session is not None else None,
                    audit=self._audit,
                )
            session = active_session()
            self._evaluator.evaluate(
                round_index=self._round,
                sim_ns=session.sim_time_ns if session is not None else 0.0,
            )
        self._write_telemetry()

    def _write_telemetry(self) -> None:
        if self.telemetry_path is None:
            return
        session = active_session()
        if session is not None:
            session.write_telemetry(self.telemetry_path)
        else:
            registry = active_registry()
            if registry is not None:
                from repro.observability.exposition import write_exposition

                write_exposition(self.telemetry_path, registry)

    @property
    def alert_events(self) -> list:
        """Every alert fired so far (empty without rules/registry)."""
        return list(self._evaluator.fired) if self._evaluator else []

    # ----- execution --------------------------------------------------------

    def _run(
        self, ticket: JobTicket, watchdog: "Watchdog | None", resume: bool
    ) -> None:
        """Run one dispatched job inline and settle its outcome.

        The tenant-named lane scope attributes every ledger record the
        job charges to the tenant in the power timeline.  Any
        ``BaseException`` other than ``KeyboardInterrupt``/``SystemExit``
        counts as a process death and is contained; those two abort the
        drain, as a real Ctrl-C would.
        """
        try:
            with lane_scope(ticket.tenant):
                runner = JobRunner(
                    ticket.job_dir,
                    ticket.request.config,
                    pim_factory=ticket.request.pim_factory,
                    watchdog=watchdog,
                    sleep=self._sleep,
                )
                outcome = runner.run(ticket.request.reads, resume=resume)
        except StageTimeoutError as exc:
            self._retry_or_fail(ticket, "timeout", exc)
        except InputError as exc:
            self._finish_failure(ticket, "input-error", exc)
        except ReproError as exc:
            self._finish_failure(ticket, "error", exc)
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as exc:  # crash containment: kills included
            self._retry_or_fail(ticket, "crashed", exc)
        else:
            self._finish_success(ticket, outcome)
        self._publish_depth(ticket.tenant)

    def _retry_or_fail(
        self, ticket: JobTicket, kind: str, error: BaseException
    ) -> None:
        # post-mortem for every watchdog kill / process death, even when
        # the job later resumes successfully: the latest dump for a job
        # dir wins
        self._dump_flight(ticket, f"{kind}: {type(error).__name__}: {error}")
        remaining = self._remaining_deadline(ticket, self._clock())
        if remaining is not None and remaining <= 0:
            self._finish_failure(ticket, "deadline-exceeded", error)
            return
        if ticket.dispatches >= self.config.max_dispatches:
            exhausted = (
                "timeout-exhausted" if kind == "timeout" else "crash-exhausted"
            )
            self._finish_failure(ticket, exhausted, error)
            return
        delay = min(
            self.config.requeue_cap_rounds,
            self.config.requeue_base_rounds * (2 ** (ticket.dispatches - 1)),
        )
        if delay > 0:
            delay += self._rng.randrange(0, 2)  # de-synchronize requeues
        ticket.next_round = self._round + delay
        ticket.state = QUEUED
        ticket.error = f"{type(error).__name__}: {error}"
        ticket.error_type = type(error).__name__
        self._queues[ticket.tenant].requeue(ticket)
        inc("service.requeues")
        event(
            "service.requeue",
            lane="service",
            tenant=ticket.tenant,
            job=ticket.name,
            kind=kind,
            delay_rounds=delay,
        )

    def _dump_flight(self, ticket: JobTicket, reason: str) -> None:
        session = active_session()
        if session is not None:
            session.dump_flight(ticket.job_dir, reason)

    def _finish_success(self, ticket: JobTicket, outcome: JobOutcome) -> None:
        ticket.state = COMPLETED
        ticket.outcome = outcome
        ticket.error = None
        ticket.error_type = None
        ticket.finished_round = self._round
        ticket.end_ts = self._clock()
        self._breakers[ticket.tenant].on_success()
        inc("service.completed")
        latency_ms = (ticket.end_ts - ticket.submit_ts) * 1e3
        self.slo.observe(
            ticket.tenant, latency_ms, ok=True, registry=active_registry()
        )
        observe(
            f"service.latency_ms.{ticket.tenant}",
            latency_ms,
        )
        self._audit(
            {
                "kind": "job-completed",
                "tenant": ticket.tenant,
                "job": ticket.name,
                "latency_ms": latency_ms,
            }
        )
        event(
            "service.complete",
            lane="service",
            tenant=ticket.tenant,
            job=ticket.name,
            dispatches=ticket.dispatches,
            resumed=ticket.resumed,
        )
        integrity = getattr(outcome.result, "integrity", None)
        if integrity is not None:
            # surface the job's data-at-rest ledger in the service
            # metrics, so fleet dashboards see rot/repair rates without
            # opening per-job journals
            inc("service.ecc.flips", integrity.flips_injected)
            inc("service.ecc.corrected", integrity.words_corrected)
            inc("service.ecc.uncorrectable", integrity.words_uncorrectable)
            event(
                "service.integrity",
                lane="service",
                tenant=ticket.tenant,
                job=ticket.name,
                windows=integrity.windows,
                flips=integrity.flips_injected,
                corrected=integrity.words_corrected,
                uncorrectable=integrity.words_uncorrectable,
            )

    def _finish_failure(
        self, ticket: JobTicket, failure_kind: str, error: BaseException
    ) -> None:
        ticket.state = FAILED
        ticket.failure_kind = failure_kind
        ticket.error = f"{type(error).__name__}: {error}"
        ticket.error_type = type(error).__name__
        ticket.finished_round = self._round
        ticket.end_ts = self._clock()
        tripped = self._breakers[ticket.tenant].on_failure(self._round)
        if tripped:
            inc("service.breaker.trips")
            event(
                "service.breaker_trip",
                lane="service",
                tenant=ticket.tenant,
                job=ticket.name,
            )
            self._audit(
                {
                    "kind": "breaker-trip",
                    "tenant": ticket.tenant,
                    "job": ticket.name,
                }
            )
            self._dump_flight(
                ticket, f"breaker-trip after {failure_kind}: {ticket.error}"
            )
        else:
            self._dump_flight(ticket, f"{failure_kind}: {ticket.error}")
        inc(f"service.failed.{failure_kind}")
        inc("service.failed.total")
        latency_ms = (ticket.end_ts - ticket.submit_ts) * 1e3
        self.slo.observe(
            ticket.tenant, latency_ms, ok=False, registry=active_registry()
        )
        observe(
            f"service.latency_ms.{ticket.tenant}",
            latency_ms,
        )
        self._audit(
            {
                "kind": "job-failed",
                "tenant": ticket.tenant,
                "job": ticket.name,
                "failure_kind": failure_kind,
                "latency_ms": latency_ms,
                "error": ticket.error,
            }
        )
        event(
            "service.fail",
            lane="service",
            tenant=ticket.tenant,
            job=ticket.name,
            kind=failure_kind,
            error=ticket.error,
        )

    # ----- metrics ----------------------------------------------------------

    def _publish_depth(self, tenant: str) -> None:
        set_gauge(
            f"service.queue_depth.{tenant}", len(self._queues[tenant])
        )
        set_gauge("service.queue_depth.total", self._total_queued())
