"""Chaos harness: prove the service sheds and recovers, never corrupts.

The harness builds a seeded multi-tenant workload, injects a seeded
mixture of faults — simulated ``SIGKILL`` mid-stage, impossible stage
budgets, exhausted whole-job deadlines, corrupt input payloads, and
in-memory fault storms — drives the whole batch through one
:class:`~repro.service.service.AssemblyService`, and then *audits* the
outcome against the service's hard promises:

1. **no job is lost or duplicated** — every planned submission ends in
   exactly one terminal accounting entry (completed ticket, failed
   ticket, typed shed, or typed submit error), and every completed
   job's journal holds exactly one ``result`` record;
2. **survivors are bit-identical** — a job that completed (including
   after kill-resume) produced exactly the contigs of an undisturbed
   serial baseline run;
3. **fairness holds under fire** — the round-robin bound (no eligible
   tenant waits more than ``T`` grants) is checked against the actual
   grant log;
4. **overload is typed** — every non-completion is a
   :class:`~repro.errors.ReproError` subclass with a stable reason or
   failure kind, never a hang, a bare crash, or a silent drop.

Everything is derived from one seed, so a chaos run is replayable —
the same storms, the same kill ticks, the same verdict.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.core.faults import FaultModel
from repro.errors import InputError, ReproError
from repro.genome import ReadSimulator, synthetic_chromosome
from repro.runtime.checkpoint import JobJournal
from repro.runtime.jobs import JobConfig, JobRunner
from repro.runtime.watchdog import Watchdog
from repro.service.admission import TenantQuota
from repro.service.service import (
    COMPLETED,
    AssemblyService,
    ServiceConfig,
    ServiceReport,
)

__all__ = [
    "ChaosConfig",
    "ChaosKill",
    "ChaosReport",
    "PlannedJob",
    "run_chaos",
]

#: injection kinds the harness draws from (weights in ChaosConfig);
#: "bitrot" ships with weight 0 so existing seeded scenarios replay
#: unchanged — opt in by weighting it (see examples/service_chaos_smoke)
INJECTIONS = (
    "none",
    "kill",
    "timeout",
    "deadline",
    "corrupt",
    "storm",
    "bitrot",
)


class ChaosKill(BaseException):
    """Stand-in for SIGKILL: not an ``Exception``, nothing may catch it
    short of the service's crash-containment boundary."""


@dataclass(frozen=True)
class ChaosConfig:
    """One reproducible chaos scenario.

    Attributes:
        seed: master seed — workloads, kill ticks and the injection
            mixture all derive from it.
        tenants / jobs_per_tenant: workload shape; with
            ``max_queued < jobs_per_tenant`` the tail submissions are
            deliberately shed (typed overload is part of the scenario).
        weights: relative draw weights per injection kind, keyed by
            :data:`INJECTIONS` entries.
    """

    seed: int = 2020
    tenants: int = 3
    jobs_per_tenant: int = 4
    k: int = 11
    genome_bp: int = 300
    read_length: int = 40
    coverage: int = 6
    engine: str = "bulk"
    max_queued: int = 3
    max_dispatches: int = 3
    weights: "dict[str, int]" = field(
        default_factory=lambda: {
            "none": 3,
            "kill": 3,
            "timeout": 2,
            "deadline": 1,
            "corrupt": 1,
            "storm": 2,
            "bitrot": 0,
        }
    )

    def tenant_names(self) -> list:
        return [f"tenant-{chr(ord('a') + i)}" for i in range(self.tenants)]


@dataclass
class PlannedJob:
    """One submission the harness intends to make."""

    tenant: str
    name: str
    injection: str
    reads: list
    kill_tick: int = 0

    @property
    def key(self) -> str:
        return f"{self.tenant}/{self.name}"


class ChaosReport:
    """The audited outcome of one chaos run."""

    def __init__(
        self,
        config: ChaosConfig,
        planned: list,
        service_report: ServiceReport,
        submit_errors: list,
        baselines: dict,
        root: Path,
        session=None,
        alert_events: "list | None" = None,
    ) -> None:
        self.config = config
        self.planned: list[PlannedJob] = planned
        self.service_report = service_report
        #: typed submission-time failures: (key, error type name, text)
        self.submit_errors: list[tuple] = submit_errors
        #: job key -> baseline contigs [(name, sequence), ...]
        self.baselines: dict[str, list] = baselines
        self.root = root
        #: the observability session active during the service half
        #: (``None`` when the run was untraced)
        self.session = session
        #: alert firings collected by the service's evaluator
        self.alert_events: list = list(alert_events or [])

    # ----- the audit --------------------------------------------------------

    def violations(self) -> list:
        """Every broken promise found, as human-readable strings.

        An empty list is the chaos harness's pass verdict.
        """
        problems: list[str] = []
        report = self.service_report
        tickets = {f"{t.tenant}/{t.name}": t for t in report.tickets}
        shed = {f"{s.tenant}/{s.name}" for s in report.shed}
        erred = {key for key, _, _ in self.submit_errors}

        # 1. exact accounting: each planned job has exactly one fate
        for job in self.planned:
            fates = (
                (job.key in tickets)
                + (job.key in shed)
                + (job.key in erred)
            )
            if fates != 1:
                problems.append(
                    f"{job.key}: {fates} accounting entries (want exactly 1)"
                )
        if len(tickets) + len(shed) + len(erred) != len(self.planned):
            problems.append(
                "accounting totals do not add up: "
                f"{len(tickets)} tickets + {len(shed)} shed + "
                f"{len(erred)} submit errors != {len(self.planned)} planned"
            )

        # 2. every admitted job reached a terminal state (no hangs/drops)
        for key, ticket in tickets.items():
            if not ticket.terminal:
                problems.append(f"{key}: non-terminal state {ticket.state!r}")

        # 3. survivors bit-identical to the undisturbed baseline, with
        #    exactly one result record in the journal (no duplication)
        for key, ticket in tickets.items():
            if ticket.state != COMPLETED:
                continue
            contigs = [
                (c.name, str(c.sequence))
                for c in ticket.outcome.result.contigs
            ]
            baseline = self.baselines.get(key)
            if baseline is not None and contigs != baseline:
                problems.append(f"{key}: contigs diverged from baseline")
            results = [
                r
                for r in JobJournal(ticket.job_dir).records()
                if r.stage == "result"
            ]
            if len(results) != 1:
                problems.append(
                    f"{key}: {len(results)} result records (want exactly 1)"
                )

        # 4. fairness bound against the actual grant log
        for tenant, streak in report.fairness_violations():
            problems.append(
                f"fairness: {tenant} waited {streak} grants "
                f"(bound {report.fairness_bound})"
            )

        # 5. every non-completion is typed
        for key, ticket in tickets.items():
            if ticket.state == COMPLETED:
                continue
            if ticket.error_type is None or ticket.failure_kind is None:
                problems.append(f"{key}: untyped failure")
        for record in report.shed:
            if not record.reason:
                problems.append(
                    f"{record.tenant}/{record.name}: shed without a reason"
                )
        for key, type_name, _ in self.submit_errors:
            if type_name != "InputError":
                problems.append(
                    f"{key}: submit error {type_name} (want InputError)"
                )

        # 6. injections landed where they must
        by_key = {job.key: job for job in self.planned}
        for key, ticket in tickets.items():
            injection = by_key[key].injection
            if injection == "kill" and ticket.state == COMPLETED:
                if not ticket.resumed:
                    problems.append(f"{key}: survived a kill without resuming")
            if injection == "deadline" and ticket.state == COMPLETED:
                problems.append(f"{key}: completed past an expired deadline")
            if (
                injection == "deadline"
                and ticket.state != COMPLETED
                and ticket.failure_kind != "deadline-exceeded"
            ):
                problems.append(
                    f"{key}: deadline injection ended as "
                    f"{ticket.failure_kind!r}"
                )
            if injection == "bitrot" and ticket.state == COMPLETED:
                integrity = getattr(
                    ticket.outcome.result, "integrity", None
                )
                if integrity is None or integrity.windows == 0:
                    problems.append(
                        f"{key}: completed without the retention model "
                        "engaged (no refresh windows elapsed)"
                    )
                elif integrity.words_uncorrectable:
                    problems.append(
                        f"{key}: {integrity.words_uncorrectable} "
                        "uncorrectable word(s) slipped past SECDED"
                    )

        # 7. with observability on: every kill/timeout that actually
        #    disturbed a dispatched job left a flight-recorder dump
        if self.session is not None and self.session.flight is not None:
            for key, ticket in tickets.items():
                if by_key[key].injection not in ("kill", "timeout"):
                    continue
                if ticket.dispatches == 0:
                    continue
                if not (Path(ticket.job_dir) / "flight.json").is_file():
                    problems.append(
                        f"{key}: {by_key[key].injection} injection left "
                        "no flight-recorder dump"
                    )
        return problems

    def summary(self) -> dict:
        data = self.service_report.summary()
        data["submit_errors"] = len(self.submit_errors)
        data["planned"] = len(self.planned)
        data["violations"] = len(self.violations())
        data["injections"] = {
            kind: sum(1 for j in self.planned if j.injection == kind)
            for kind in INJECTIONS
        }
        return data

    def __str__(self) -> str:
        verdict = "PASS" if not self.violations() else "FAIL"
        mix = ", ".join(
            f"{kind}={count}"
            for kind, count in self.summary()["injections"].items()
            if count
        )
        return (
            f"chaos [{verdict}]: {self.service_report} | "
            f"{len(self.submit_errors)} typed submit error(s) | mix: {mix}"
        )


# ----- scenario construction -------------------------------------------------


def build_workload(config: ChaosConfig) -> list:
    """The full seeded submission plan (public so tests can reuse it)."""
    rng = random.Random(config.seed)
    kinds = [k for k in INJECTIONS if config.weights.get(k, 0) > 0]
    weights = [config.weights[k] for k in kinds]
    planned: list[PlannedJob] = []
    for tenant in config.tenant_names():
        for index in range(config.jobs_per_tenant):
            reference = synthetic_chromosome(
                config.genome_bp, seed=rng.randrange(1, 10_000)
            )
            simulator = ReadSimulator(
                read_length=config.read_length,
                seed=rng.randrange(1, 10_000),
            )
            reads = simulator.sample(
                reference,
                simulator.reads_for_coverage(
                    len(reference), config.coverage
                ),
            )
            planned.append(
                PlannedJob(
                    tenant=tenant,
                    name=f"job-{index:02d}",
                    injection=rng.choices(kinds, weights=weights, k=1)[0],
                    reads=list(reads),
                    # the hashmap stage polls the watchdog at least once
                    # per read on either engine, so capping the draw at
                    # the read count lands every kill inside the first
                    # dispatch
                    kill_tick=min(rng.randrange(20, 400), len(reads)),
                )
            )
    return planned


def _kill_watchdog(kill_tick: int) -> Watchdog:
    """A watchdog whose poll hook dies at a seeded tick — the in-process
    twin of ``kill -9`` at a random instruction boundary."""

    def bomb(tick: int) -> None:
        if tick >= kill_tick:
            raise ChaosKill(f"chaos kill at tick {tick}")

    return Watchdog(on_tick=bomb)


def _storm_pim_factory(seed: int) -> Callable:
    """Platform factory with an aggressive in-memory fault stream."""
    from repro.assembly.pipeline import _sized_device

    def make(reads):
        pim = _sized_device(reads, 11)
        pim.controller.faults = FaultModel(
            seed=seed, compute2_rate=2e-4, tra_rate=1e-4
        )
        return pim

    return make


def _bitrot_pim_factory(seed: int) -> Callable:
    """Platform factory with accelerated retention rot under SECDED.

    The upset probability is orders of magnitude beyond real DRAM so a
    short chaos job actually exercises the codec; SECDED + scrub must
    still make the job's contigs indistinguishable from an unrotted
    run (the rot stream is seeded, so the serial baseline sees the
    exact same upsets).
    """
    from repro.assembly.pipeline import _sized_device
    from repro.core.integrity import IntegrityConfig

    def make(reads):
        pim = _sized_device(reads, 11)
        pim.attach_integrity(
            IntegrityConfig(
                ecc="secded",
                retention_interval_s=1e-4,
                seed=seed,
                upset_probability=1e-6,
            )
        )
        return pim

    return make


def _corrupt_loader(key: str) -> Callable:
    def load():
        raise InputError(
            f"chaos: input payload for {key} failed to parse "
            "(simulated corrupt FASTQ)"
        )

    return load


# ----- the run ---------------------------------------------------------------


def run_chaos(
    root: "str | Path",
    config: "ChaosConfig | None" = None,
    sleep: "Callable[[float], None] | None" = None,
    session=None,
    slos: "list | None" = None,
    alert_rules: "list | None" = None,
    telemetry_path: "str | Path | None" = None,
) -> ChaosReport:
    """Build, disturb, drain and audit one chaos scenario.

    Args:
        root: scratch directory (baselines under ``<root>/baseline``,
            service journals under ``<root>/service``).
        config: scenario knobs (seeded defaults when omitted).
        sleep: injectable backoff sleeper (tests pass a no-op so the
            retry ladder replays without wall-clock delays).
        session: optional
            :class:`~repro.observability.ObservabilitySession`
            activated around the *service* half only — the serial
            baselines stay untraced, so per-tenant power attribution
            covers exactly what the service dispatched.
        slos / alert_rules / telemetry_path: forwarded to
            :class:`~repro.service.service.AssemblyService`.
    """
    config = config or ChaosConfig()
    root = Path(root)
    planned = build_workload(config)
    sleeper = sleep if sleep is not None else (lambda _s: None)

    job_config = JobConfig(k=config.k, engine=config.engine)
    storm_policy = "detect-retry-remap"

    # undisturbed serial baselines for every job that could complete
    baselines: dict[str, list] = {}
    for job in planned:
        if job.injection in ("corrupt", "deadline"):
            continue
        base_config = job_config
        factory = None
        if job.injection == "storm":
            factory = _storm_pim_factory(config.seed)
            base_config = JobConfig(
                k=config.k, engine=config.engine, resilience=storm_policy
            )
        elif job.injection == "bitrot":
            factory = _bitrot_pim_factory(config.seed)
            base_config = JobConfig(
                k=config.k,
                engine=config.engine,
                ecc="secded",
                retention_interval_s=1e-4,
            )
        runner = JobRunner(
            root / "baseline" / job.tenant / job.name,
            base_config,
            pim_factory=factory,
            sleep=sleeper,
        )
        outcome = runner.run(job.reads)
        baselines[job.key] = [
            (c.name, str(c.sequence)) for c in outcome.result.contigs
        ]

    service = AssemblyService(
        root / "service",
        ServiceConfig(
            default_quota=TenantQuota(max_queued=config.max_queued),
            max_dispatches=config.max_dispatches,
            seed=config.seed,
        ),
        sleep=sleeper,
        slos=slos,
        alert_rules=alert_rules,
        telemetry_path=telemetry_path,
    )

    activation = session.activate() if session is not None else nullcontext()
    with activation:
        service_report, submit_errors = _submit_and_drain(
            service, planned, config
        )
    return ChaosReport(
        config=config,
        planned=planned,
        service_report=service_report,
        submit_errors=submit_errors,
        baselines=baselines,
        root=root,
        session=session,
        alert_events=service.alert_events,
    )


def _submit_and_drain(
    service: AssemblyService, planned: list, config: ChaosConfig
) -> tuple:
    """Submit the whole plan and drain it (the disturbed half of the run)."""
    job_config = JobConfig(k=config.k, engine=config.engine)
    storm_policy = "detect-retry-remap"
    submit_errors: list[tuple] = []
    for job in planned:
        submit_config = job_config
        factory = None
        watchdog_factory = None
        deadline_s = None
        reads: "list | Callable" = job.reads
        if job.injection == "kill":
            tick = job.kill_tick

            def make_watchdog(dispatch: int, _tick: int = tick):
                # first dispatch dies mid-stage; resumes run undisturbed
                return _kill_watchdog(_tick) if dispatch == 0 else None

            watchdog_factory = make_watchdog
        elif job.injection == "timeout":

            def timeout_watchdog(dispatch: int):
                if dispatch == 0:
                    return Watchdog(stage_budget_s=1e-9, stride=1)
                return None

            watchdog_factory = timeout_watchdog
        elif job.injection == "deadline":
            deadline_s = 1e-9
        elif job.injection == "corrupt":
            reads = _corrupt_loader(job.key)
        elif job.injection == "storm":
            factory = _storm_pim_factory(config.seed)
            submit_config = JobConfig(
                k=config.k, engine=config.engine, resilience=storm_policy
            )
        elif job.injection == "bitrot":
            factory = _bitrot_pim_factory(config.seed)
            submit_config = JobConfig(
                k=config.k,
                engine=config.engine,
                ecc="secded",
                retention_interval_s=1e-4,
            )
        try:
            service.submit(
                job.tenant,
                job.name,
                reads,
                submit_config,
                deadline_s=deadline_s,
                pim_factory=factory,
                watchdog_factory=watchdog_factory,
            )
        except InputError as exc:
            submit_errors.append((job.key, type(exc).__name__, str(exc)))
        except ReproError:
            # admission sheds are recorded inside the service report
            pass

    return service.drain(), submit_errors
