"""The AssemblyService: scheduling, retries, deadlines, degradation."""

import pytest

from repro.errors import AdmissionError, CircuitOpenError, StageTimeoutError
from repro.observability.session import ObservabilitySession
from repro.runtime.jobs import JobConfig
from repro.runtime.watchdog import Watchdog
from repro.service import AssemblyService, ServiceConfig, TenantQuota
from repro.service.service import COMPLETED, FAILED

from .conftest import K, baseline_contigs, contigs_of, make_reads


class ServiceKill(BaseException):
    """Simulated SIGKILL inside a running job."""


def kill_first_dispatch(kill_tick: int = 40):
    """Watchdog factory: first dispatch dies mid-stage, resumes run clean."""

    def factory(dispatch: int):
        if dispatch != 0:
            return None

        def bomb(tick: int) -> None:
            if tick >= kill_tick:
                raise ServiceKill(f"kill at tick {tick}")

        return Watchdog(on_tick=bomb)

    return factory


def kill_every_dispatch(kill_tick: int = 40):
    def factory(dispatch: int):
        def bomb(tick: int) -> None:
            if tick >= kill_tick:
                raise ServiceKill(f"kill at tick {tick}")

        return Watchdog(on_tick=bomb)

    return factory


def service(tmp_path, no_sleep, **overrides) -> AssemblyService:
    return AssemblyService(
        tmp_path / "svc", ServiceConfig(**overrides), sleep=no_sleep
    )


class TestHappyPath:
    def test_multi_tenant_batch_completes_bit_identical(
        self, tmp_path, no_sleep
    ):
        config = JobConfig(k=K, engine="bulk")
        svc = service(tmp_path, no_sleep)
        jobs = {}
        for t, tenant in enumerate(("acme", "beta", "crux")):
            for i in range(2):
                reads = make_reads(seed=10 * t + i)
                jobs[f"{tenant}/job-{i}"] = reads
                svc.submit(tenant, f"job-{i}", reads, config)
        report = svc.drain()
        assert len(report.completed) == 6
        assert not report.failed and not report.shed
        assert report.fairness_violations() == []
        for ticket in report.tickets:
            key = f"{ticket.tenant}/{ticket.name}"
            assert contigs_of(ticket.outcome) == baseline_contigs(
                tmp_path, jobs[key], config
            )

    def test_in_flight_cap_serializes_a_tenant(self, tmp_path, no_sleep):
        svc = service(tmp_path, no_sleep)
        config = JobConfig(k=K)
        svc.submit("solo", "j0", make_reads(seed=1), config)
        svc.submit("solo", "j1", make_reads(seed=2), config)
        report = svc.drain()
        assert len(report.completed) == 2
        # one job per round: the grants cannot share a round
        rounds = [g.round for g in report.grants]
        assert len(rounds) == 2 and rounds[0] < rounds[1]

    def test_report_summary_is_printable(self, tmp_path, no_sleep):
        svc = service(tmp_path, no_sleep)
        svc.submit("t", "j", make_reads(), JobConfig(k=K))
        report = svc.drain()
        assert "1/1 completed" in str(report)
        assert report.summary()["jobs"] == 1


class TestAdmission:
    def test_queue_full_sheds_typed_and_is_recorded(self, tmp_path, no_sleep):
        svc = service(
            tmp_path,
            no_sleep,
            default_quota=TenantQuota(max_queued=1),
        )
        svc.submit("t", "j0", make_reads(seed=1), JobConfig(k=K))
        with pytest.raises(AdmissionError) as info:
            svc.submit("t", "j1", make_reads(seed=2), JobConfig(k=K))
        assert info.value.reason == "tenant-queue-full"
        report = svc.drain()
        assert len(report.shed) == 1
        assert report.shed[0].reason == "tenant-queue-full"
        assert len(report.completed) == 1

    def test_duplicate_job_name_is_refused(self, tmp_path, no_sleep):
        svc = service(tmp_path, no_sleep)
        svc.submit("t", "same", make_reads(seed=1), JobConfig(k=K))
        with pytest.raises(AdmissionError) as info:
            svc.submit("t", "same", make_reads(seed=2), JobConfig(k=K))
        assert info.value.reason == "duplicate-job"

    def test_oversized_payload_is_shed_before_loading(self, tmp_path, no_sleep):
        svc = service(
            tmp_path,
            no_sleep,
            default_quota=TenantQuota(max_input_bytes=10),
        )

        def loader():  # pragma: no cover - must never run
            raise AssertionError("oversized payload was loaded")

        with pytest.raises(AdmissionError) as info:
            svc.submit(
                "t", "big", loader, JobConfig(k=K), input_bytes=11
            )
        assert info.value.reason == "input-too-large"

    def test_invalid_deadline_is_an_input_error(self, tmp_path, no_sleep):
        from repro.errors import InputError

        svc = service(tmp_path, no_sleep)
        with pytest.raises(InputError):
            svc.submit(
                "t", "j", make_reads(), JobConfig(k=K), deadline_s=0
            )
        with pytest.raises(InputError):
            svc.submit(
                "t", "j", make_reads(), JobConfig(k=K), stage_timeout_s=-1
            )


class TestCrashContainment:
    def test_killed_job_resumes_and_matches_baseline(self, tmp_path, no_sleep):
        config = JobConfig(k=K, engine="bulk")
        reads = make_reads(seed=3)
        svc = service(tmp_path, no_sleep)
        ticket = svc.submit(
            "t",
            "killed",
            reads,
            config,
            watchdog_factory=kill_first_dispatch(),
        )
        report = svc.drain()
        assert ticket.state == COMPLETED
        assert ticket.resumed and ticket.dispatches == 2
        assert contigs_of(ticket.outcome) == baseline_contigs(
            tmp_path, reads, config
        )
        assert report.fairness_violations() == []

    def test_timeout_retries_then_completes(self, tmp_path, no_sleep):
        def factory(dispatch: int):
            if dispatch == 0:
                return Watchdog(stage_budget_s=1e-9, stride=1)
            return None

        svc = service(tmp_path, no_sleep)
        ticket = svc.submit(
            "t", "slow", make_reads(seed=4), JobConfig(k=K),
            watchdog_factory=factory,
        )
        svc.drain()
        assert ticket.state == COMPLETED
        assert ticket.resumed

    def test_keyboard_interrupt_aborts_drain_and_job_resumes(
        self, tmp_path, no_sleep
    ):
        """A real Ctrl-C is not a contained crash: it leaves drain(),
        and the interrupted job's journal resumes on a fresh service."""
        config = JobConfig(k=K, engine="bulk")
        reads = make_reads(seed=8)

        def interrupt(tick: int) -> None:
            if tick >= 40:
                raise KeyboardInterrupt

        svc = service(tmp_path, no_sleep)
        ticket = svc.submit(
            "t",
            "ctrl-c",
            reads,
            config,
            watchdog_factory=lambda _d: Watchdog(on_tick=interrupt),
        )
        with pytest.raises(KeyboardInterrupt):
            svc.drain()
        assert not ticket.terminal

        fresh = service(tmp_path, no_sleep)
        resumed = fresh.submit("t", "ctrl-c", reads, config)
        fresh.drain()
        assert resumed.state == COMPLETED
        assert resumed.resumed and resumed.dispatches == 1
        assert contigs_of(resumed.outcome) == baseline_contigs(
            tmp_path, reads, config
        )

    def test_unrecoverable_crash_fails_typed_after_capped_attempts(
        self, tmp_path, no_sleep
    ):
        svc = service(tmp_path, no_sleep, max_dispatches=3)
        ticket = svc.submit(
            "t",
            "doomed",
            make_reads(seed=5),
            JobConfig(k=K),
            watchdog_factory=kill_every_dispatch(),
        )
        svc.drain()
        assert ticket.state == FAILED
        assert ticket.failure_kind == "crash-exhausted"
        assert ticket.error_type == "ServiceKill"
        assert ticket.dispatches == 3


class TestDeadlines:
    def test_expired_deadline_is_typed_terminal(self, tmp_path, no_sleep):
        svc = service(tmp_path, no_sleep)
        ticket = svc.submit(
            "t", "late", make_reads(seed=6), JobConfig(k=K), deadline_s=1e-9
        )
        svc.drain()
        assert ticket.state == FAILED
        assert ticket.failure_kind == "deadline-exceeded"
        assert ticket.error_type == StageTimeoutError.__name__

    def test_generous_deadline_propagates_and_completes(
        self, tmp_path, no_sleep
    ):
        svc = service(tmp_path, no_sleep)
        ticket = svc.submit(
            "t",
            "fine",
            make_reads(seed=7),
            JobConfig(k=K),
            deadline_s=600.0,
            stage_timeout_s=600.0,
        )
        svc.drain()
        assert ticket.state == COMPLETED


    def test_deadline_expired_at_dispatch_grants_again_same_round(
        self, tmp_path, no_sleep
    ):
        """A requeued job whose budget ran out in backoff fails at
        dispatch, and the arbiter grants again in the same round."""
        now = [0.0]

        def age_clock(_dispatch: int):
            def tick(_t: int) -> None:
                now[0] = 10.0  # this job outlasts the other's budget

            return Watchdog(on_tick=tick)

        svc = AssemblyService(
            tmp_path / "svc",
            ServiceConfig(requeue_base_rounds=0),
            clock=lambda: now[0],
            sleep=no_sleep,
        )
        late = svc.submit(
            "a", "late", make_reads(seed=1), JobConfig(k=K),
            deadline_s=5.0, watchdog_factory=kill_first_dispatch(),
        )
        svc.submit("a", "next", make_reads(seed=2), JobConfig(k=K))
        svc.submit(
            "b", "slow", make_reads(seed=3), JobConfig(k=K),
            watchdog_factory=age_clock,
        )
        report = svc.drain()
        assert [(g.round, g.tenant, g.name) for g in report.grants] == [
            (1, "a", "late"),
            (2, "b", "slow"),
            (3, "a", "late"),
            (3, "a", "next"),
        ]
        assert late.state == FAILED
        assert late.failure_kind == "deadline-exceeded"
        assert late.dispatches == 1
        assert len(report.completed) == 2

class TestBreaker:
    def test_failing_tenant_trips_breaker_then_sheds(self, tmp_path, no_sleep):
        svc = service(
            tmp_path,
            no_sleep,
            max_dispatches=1,
            breaker_threshold=2,
            breaker_cooldown_rounds=50,
        )
        for i in range(2):
            svc.submit(
                "flaky",
                f"bad-{i}",
                make_reads(seed=i),
                JobConfig(k=K),
                watchdog_factory=kill_every_dispatch(),
            )
        report = svc.drain()
        assert len(report.failed) == 2
        assert report.breaker_trips == 1
        assert svc.breaker("flaky").state == "open"
        with pytest.raises(CircuitOpenError) as info:
            svc.submit("flaky", "next", make_reads(seed=9), JobConfig(k=K))
        assert info.value.reason == "breaker-open"
        assert svc.report().shed[-1].reason == "breaker-open"

    def test_breaker_holds_queued_jobs_until_probe_succeeds(
        self, tmp_path, no_sleep
    ):
        svc = service(
            tmp_path,
            no_sleep,
            max_dispatches=1,
            breaker_threshold=1,
            breaker_cooldown_rounds=3,
        )
        svc.submit(
            "t",
            "bad",
            make_reads(seed=1),
            JobConfig(k=K),
            watchdog_factory=kill_every_dispatch(),
        )
        good = svc.submit("t", "good", make_reads(seed=2), JobConfig(k=K))
        report = svc.drain()
        # the good job waited out the cooldown, then closed the breaker
        assert good.state == COMPLETED
        assert svc.breaker("t").state == "closed"
        bad = next(t for t in report.tickets if t.name == "bad")
        assert bad.finished_round + 3 <= max(g.round for g in report.grants)


class TestDegradation:
    def test_pressure_steps_bulk_down_to_scalar_same_contigs(
        self, tmp_path, no_sleep
    ):
        config = JobConfig(k=K, engine="bulk")
        svc = service(tmp_path, no_sleep, degrade_engine_depth=2)
        reads = {i: make_reads(seed=20 + i) for i in range(3)}
        tickets = [
            svc.submit("t", f"j{i}", reads[i], config) for i in range(3)
        ]
        svc.drain()
        degraded = [t for t in tickets if "engine-scalar" in t.degraded]
        assert degraded, "queue pressure never degraded any job"
        for ticket in degraded:
            assert ticket.effective_config.engine == "scalar"
            assert ticket.state == COMPLETED
            # bit-identical to the *bulk* baseline: degradation trades
            # simulated speed, never results
            i = int(ticket.name[1:])
            assert contigs_of(ticket.outcome) == baseline_contigs(
                tmp_path, reads[i], config
            )

    def test_batch_reduction_under_pressure(self, tmp_path, no_sleep):
        config = JobConfig(k=K, batch_reads=8)
        svc = service(tmp_path, no_sleep, degrade_batch_depth=2)
        tickets = [
            svc.submit("t", f"j{i}", make_reads(seed=30 + i), config)
            for i in range(3)
        ]
        svc.drain()
        reduced = [t for t in tickets if t.degraded]
        assert reduced
        assert all(
            t.effective_config.batch_reads == 2 for t in reduced
        )
        assert all(t.state == COMPLETED for t in tickets)

    def test_no_pressure_no_degradation(self, tmp_path, no_sleep):
        svc = service(tmp_path, no_sleep, degrade_engine_depth=10)
        ticket = svc.submit(
            "t", "j", make_reads(), JobConfig(k=K, engine="bulk")
        )
        svc.drain()
        assert not ticket.degraded
        assert ticket.effective_config.engine == "bulk"


class TestObservability:
    def test_service_lane_metrics_and_events(self, tmp_path, no_sleep):
        session = ObservabilitySession()
        with session.activate():
            svc = service(
                tmp_path,
                no_sleep,
                default_quota=TenantQuota(max_queued=1),
            )
            svc.submit("t", "j0", make_reads(seed=1), JobConfig(k=K))
            with pytest.raises(AdmissionError):
                svc.submit("t", "j1", make_reads(seed=2), JobConfig(k=K))
            svc.drain()
        registry = session.registry
        assert registry.counter("service.admitted").value == 1
        assert registry.counter("service.shed.tenant-queue-full").value == 1
        assert registry.counter("service.completed").value == 1
        assert registry.gauge("service.queue_depth.total").value == 0
        latency = registry.histogram("service.latency_ms.t")
        assert latency.count == 1
        lanes = {e.lane for e in session.tracer.events()}
        # the job runs on the scheduling thread, so its journal events
        # land in the same session
        assert lanes == {"service", "job"}
        names = {e.name for e in session.tracer.events()}
        assert {"service.admit", "service.shed", "service.dispatch"} <= names
        assert session.tracer.spans("service.drain")

    def test_job_stage_spans_nest_under_the_drain(self, tmp_path, no_sleep):
        session = ObservabilitySession()
        with session.activate():
            svc = service(tmp_path, no_sleep)
            config = JobConfig(k=K, engine="bulk")
            svc.submit("t", "j0", make_reads(seed=1), config)
            svc.submit("u", "j1", make_reads(seed=2), config)
            svc.drain()
        tracer = session.tracer
        (drain,) = tracer.spans("service.drain")
        parents = {s.span_id: s.parent_id for s in tracer.spans()}

        def under_drain(span_id):
            while span_id is not None:
                if span_id == drain.span_id:
                    return True
                span_id = parents[span_id]
            return False

        for stage in ("hashmap", "debruijn", "traverse"):
            spans = tracer.spans(f"stage.{stage}")
            assert len(spans) == 2, stage
            assert all(under_drain(s.parent_id) for s in spans)
        # helper metrics from inside the job reach the session too
        assert session.registry.counter("pim.batch.flushes").value > 0

    def test_lane_order_includes_service(self):
        from repro.observability.export import LANE_ORDER

        assert "service" in LANE_ORDER


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_dispatches": 0},
            {"requeue_base_rounds": -1},
            {"requeue_cap_rounds": -1},
            {"degrade_engine_depth": 0},
            {"degrade_batch_depth": 0},
        ],
    )
    def test_service_config_rejects_nonsense(self, kwargs):
        with pytest.raises(ValueError):
            ServiceConfig(**kwargs)
